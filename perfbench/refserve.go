package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// The reference server is this program run with -refserve: a fixed HTTP
// service built from the benchmark's own code only, so no change to the
// repository moves its speed. The timed window alternates between the
// workload's servers and this one over the same client, loopback and
// cores, and the end-to-end time metrics are read against it (see
// normalise in serving.go): on a shared host whose speed drifts by a
// quarter between minutes, the ratio of the two keeps what the program
// did and drops what the host did.

// refWork is the fixed work one reference request asks for: samples
// Box–Muller normal draws folded into per-candidate win counts (the shape
// of the ranking's Monte Carlo), a dim×dim matrix product (the shape of
// the batch kernels), and a reply of entries records (the shape of the
// record encode).
type refWork struct {
	Samples int    `json:"samples"`
	Dim     int    `json:"dim"`
	Entries int    `json:"entries"`
	Seed    uint64 `json:"seed"`
}

type refEntry struct {
	Candidate int     `json:"candidate"`
	Label     string  `json:"label"`
	PBest     float64 `json:"p_best"`
	Mean      float64 `json:"mean"`
	Stderr    float64 `json:"stderr"`
}

type refReply struct {
	Trace   float64    `json:"trace"`
	Entries []refEntry `json:"entries"`
}

// refCandidates is how many candidates the reference Monte Carlo ranks.
const refCandidates = 4

// refPath is the reference server's one endpoint.
const refPath = "/ref"

// answerRef computes the reply to w; it depends on w alone.
func answerRef(w refWork) refReply {
	x := w.Seed | 1
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return (float64(x>>11) + 0.5) / (1 << 53)
	}
	var wins [refCandidates]int
	var sum [refCandidates]float64
	for s := 0; s < w.Samples; s++ {
		best, bestV := 0, math.Inf(1)
		for c := 0; c < refCandidates; c++ {
			// One Box–Muller normal per candidate around mean c+1.
			v := float64(c+1) + 0.5*math.Sqrt(-2*math.Log(next()))*math.Cos(2*math.Pi*next())
			sum[c] += v
			if v < bestV {
				best, bestV = c, v
			}
		}
		wins[best]++
	}
	var trace float64
	if n := w.Dim; n > 0 {
		a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
		for i := range a {
			a[i], b[i] = next(), next()
		}
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				row, brow := c[i*n:(i+1)*n], b[k*n:(k+1)*n]
				for j := range row {
					row[j] += aik * brow[j]
				}
			}
		}
		for i := 0; i < n; i++ {
			trace += c[i*n+i]
		}
	}
	rep := refReply{Trace: trace, Entries: make([]refEntry, w.Entries)}
	for i := range rep.Entries {
		c := i % refCandidates
		rep.Entries[i] = refEntry{
			Candidate: c,
			Label:     fmt.Sprintf("candidate-%d-of-%d", c, refCandidates),
			PBest:     float64(wins[c]) / float64(max(w.Samples, 1)),
			Mean:      sum[c] / float64(max(w.Samples, 1)),
			Stderr:    next(),
		}
	}
	return rep
}

// refServe runs the reference server: it listens on 127.0.0.1:0,
// announces the address on stderr the way `lamb serve` does, and answers
// POST /ref until SIGTERM.
func refServe() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+refPath, func(rw http.ResponseWriter, req *http.Request) {
		var w refWork
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&w); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		// A failed write is the client's to see; there is nothing to retry.
		_ = json.NewEncoder(rw).Encode(answerRef(w))
	})
	srv := &http.Server{Handler: mux}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-stop
		srv.Close()
	}()
	fmt.Fprintf(os.Stderr, "perfbench reference: listening on %s\n", ln.Addr())
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// refSpec is a workload's reference: the work of each reference request,
// and the rate and boot time the reference server reached on the
// development host, which the measured ones are read against.
type refSpec struct {
	work  refWork
	qps   float64 // nominal reference requests per second
	bootS float64 // nominal reference exec-to-first-answer seconds
}

// encode returns the request body of s and the exact answer the
// reference server must give to it.
func (s refSpec) encode() (body, want []byte, err error) {
	if body, err = json.Marshal(s.work); err != nil {
		return nil, nil, err
	}
	if want, err = json.Marshal(answerRef(s.work)); err != nil {
		return nil, nil, err
	}
	return body, append(want, '\n'), nil
}

// References of the workloads: a query-sized one for the single-query
// workloads and a batch-sized one for batch-compute.
var (
	refQuery = refSpec{work: refWork{Samples: 1024, Entries: 12, Seed: 1}, qps: 3700, bootS: 0.0054}
	refBatch = refSpec{work: refWork{Samples: 16384, Dim: 128, Entries: 640, Seed: 1}, qps: 240, bootS: 0.015}
)
