package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupBoots is how many times a run boots the workload's servers, each
// boot followed by a boot of the reference server; the last boots serve
// the measured window and setup_s is the median over the pairs.
const setupBoots = 9

// warmupStream is the untimed stream traffic sent after the warm-up pass
// over the distinct pool, so caches, heaps and the outcome store reach
// their running state before the window opens.
const warmupStream = 2 * time.Second

// tally counts attempted and failed operations and keeps the first few
// failures for the report.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	errs              []string
}

// record counts one attempted operation, failed when err is non-nil.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failLocked(err)
	}
}

// fail marks an already counted operation as failed (a deferred check).
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(err)
}

func (t *tally) failLocked(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// fleet is the set of processes one boot starts; front is the base URL
// clients send to.
type fleet struct {
	procs []*proc
	front string
}

// stop stops the processes front to back and reports the first unclean
// exit.
func (f *fleet) stop() error {
	var first error
	for i := len(f.procs) - 1; i >= 0; i-- {
		if err := f.procs[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	f.procs = nil
	return first
}

// boot starts the workload's servers — serve, then (when routed, or
// asked to with route) `lamb route` in front of it once serve is
// listening, because the router's first health probe is synchronous —
// and returns when the front process listens. The outcome snapshot is
// copied first (serve rewrites it at shutdown); the returned start time
// is taken after the copy, just before the first exec.
func (v *env) boot(dir string, k int, route bool) (*fleet, time.Time, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-backend", v.w.backend}
	if v.profilePath != "" {
		args = append(args, "-profile", v.profilePath)
	}
	if v.snapPath != "" {
		path := filepath.Join(dir, fmt.Sprintf("outcomes-boot%d.json", k))
		if err := copyFile(v.snapPath, path); err != nil {
			return nil, time.Time{}, err
		}
		args = append(args, "-outcomes", path, "-half-life", "0", "-snapshot-every", "0", "-explore-rate", "0")
	}
	start := time.Now()
	serve, err := startProc("lamb serve", v.lambBin, args...)
	if err != nil {
		return nil, start, err
	}
	f := &fleet{procs: []*proc{serve}, front: serve.url()}
	if route {
		rt, err := startProc("lamb route", v.lambBin, "route", "-addr", "127.0.0.1:0", "-backends", serve.url())
		if err != nil {
			f.stop()
			return nil, start, err
		}
		f.procs = append(f.procs, rt)
		f.front = rt.url()
	}
	return f, start, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// bootRef starts the reference server (this program with -refserve),
// posts one reference request and checks the answer; it returns the
// running server and the exec-to-checked-answer time.
func bootRef(cl *client, exe string, body, want []byte) (*proc, float64, error) {
	start := time.Now()
	p, err := startProc("perfbench reference", exe, "-refserve")
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	status, err := cl.post(p.url()+refPath, body, &buf)
	if err == nil {
		err = checkRef(status, buf.Bytes(), want)
	}
	took := time.Since(start).Seconds()
	if err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, took, nil
}

// checkRef compares a reference answer with the in-process one.
func checkRef(status int, body, want []byte) error {
	if status != 200 || !bytes.Equal(body, want) {
		return fmt.Errorf("reference server answered status %d: %.200s", status, body)
	}
	return nil
}

// servingRun is the outcome of one untimed-setup, timed-window run.
type servingRun struct {
	metrics map[string]float64
	detail  map[string]any
}

// phaseLen is the length of one phase of the timed window. The window is
// a row of one-second slots; each slot is a phase on the workload's
// servers followed by a phase on the reference server.
const phaseLen = 500 * time.Millisecond

// phase is what one phase of the window saw.
type phase struct {
	lat     []float64      // per-request latency, ms, in completion order
	queries [conns]float64 // answered queries per sender
	busy    [conns]float64 // seconds from the phase start to each sender's last answer
	cpu     float64        // server CPU seconds over the phase
}

// rate is the phase's answered queries per second: each closed-loop
// sender's count over the time it was busy, summed over the senders.
func (p *phase) rate() float64 {
	r := 0.0
	for s := range p.queries {
		if p.busy[s] > 0 {
			r += p.queries[s] / p.busy[s]
		}
	}
	return r
}

// runPhase drives base for phaseLen from the stream next and collects
// each answer into a phase; check returns the queries a correct answer
// counts for, or an error. cpu reads the CPU seconds of the servers
// behind base.
func runPhase(cl *client, base string, pool []request, next func() (int, bool), check func(answer) (int, error), cpu func() (float64, error)) (*phase, error) {
	p := &phase{}
	cpu0, err := cpu()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	start := time.Now()
	cl.drive(base, pool, until(start.Add(phaseLen), next), func(a answer) {
		q, err := check(a)
		done := time.Since(start).Seconds()
		mu.Lock()
		defer mu.Unlock()
		p.lat = append(p.lat, float64(a.lat.Nanoseconds())/1e6)
		if err == nil {
			p.queries[a.sender] += float64(q)
		}
		p.busy[a.sender] = done
	})
	cpu1, err := cpu()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	return p, nil
}

// until stops the request stream next at deadline.
func until(deadline time.Time, next func() (int, bool)) func() (int, bool) {
	return func() (int, bool) {
		if time.Now().After(deadline) {
			return 0, false
		}
		return next()
	}
}

// runServing boots the workload's servers and the reference server,
// warms them, drives the alternating closed loop for the window and
// checks every answer.
func runServing(v *env, dir string, seconds int, t *tally) (*servingRun, error) {
	ref, err := v.newEngine()
	if err != nil {
		return nil, err
	}
	refs, err := references(ref, v.in, v.in.warm)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	refBody, refWant, err := v.w.ref.encode()
	if err != nil {
		return nil, err
	}
	refPool := []request{{path: refPath, body: refBody}}
	pool := v.in.pool
	cl := newClient()
	defer cl.close()

	// Set-up: each sample runs from the exec of the prebuilt binaries to
	// the checked first answer, and is paired with a boot of the
	// reference server right after it; the last boots stay up for the
	// window.
	var f *fleet
	var rp *proc
	defer func() {
		if f != nil && f.procs != nil {
			f.stop()
		}
		if rp != nil {
			rp.stop()
		}
	}()
	setup := make([]float64, 0, setupBoots)
	refSetup := make([]float64, 0, setupBoots)
	probe := v.in.warm[0]
	for k := 0; k < setupBoots; k++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
			if err := rp.stop(); err != nil {
				return nil, err
			}
			f, rp = nil, nil
			cl.close()
		}
		fk, start, err := v.boot(dir, k, v.w.routed)
		if err != nil {
			return nil, err
		}
		f = fk
		var buf bytes.Buffer
		status, err := cl.post(f.front+pool[probe].path, pool[probe].body, &buf)
		if err == nil {
			err = checkFirst(&pool[probe], refs[probe], status, buf.Bytes())
		}
		setup = append(setup, time.Since(start).Seconds())
		t.record(err)
		var took float64
		if rp, took, err = bootRef(cl, exe, refBody, refWant); err != nil {
			return nil, err
		}
		refSetup = append(refSetup, took)
	}

	// Warm-up pass: every distinct query once, each first answer
	// compared with the reference and kept for the byte-equality checks
	// of later answers.
	first := make([][]byte, len(pool))
	var wpos atomic.Int64
	cl.drive(f.front, pool, func() (int, bool) {
		i := wpos.Add(1) - 1
		if i >= int64(len(v.in.warm)) {
			return 0, false
		}
		return v.in.warm[i], true
	}, func(a answer) {
		err := a.err
		if err == nil {
			err = checkFirst(&pool[a.idx], refs[a.idx], a.status, a.body)
		}
		if err == nil {
			first[a.idx] = bytes.Clone(a.body)
		}
		t.record(err)
	})

	// later checks an answer given after the warm-up pass. Adaptive
	// answers move with feedback, so they get the invariant check. In the
	// window it is deferred, and each distinct (request, answer) pair is
	// kept once with its count: the client then allocates little, and a
	// wrong answer still fails every request that received it.
	type heldKey struct {
		idx  int
		hash uint64
	}
	type held struct {
		body []byte
		n    int
	}
	var heldMu sync.Mutex
	deferred := map[heldKey]*held{}
	hashSeed := maphash.MakeSeed()
	later := func(a answer, defer_ bool) error {
		if a.err != nil {
			return a.err
		}
		r := &pool[a.idx]
		switch {
		case a.status != 200:
			return fmt.Errorf("status %d: %s", a.status, bytes.TrimSpace(a.body))
		case v.w.adaptive && r.path == pathQuery && defer_:
			k := heldKey{a.idx, maphash.Bytes(hashSeed, a.body)}
			heldMu.Lock()
			if h := deferred[k]; h != nil {
				h.n++
			} else {
				deferred[k] = &held{bytes.Clone(a.body), 1}
			}
			heldMu.Unlock()
			return nil
		case v.w.adaptive && r.path == pathQuery:
			return checkAdaptive(&r.query, a.body)
		case v.w.adaptive:
			return checkFirst(r, nil, a.status, a.body)
		case !bytes.Equal(a.body, first[a.idx]):
			return fmt.Errorf("answer to pool request %d differs from its first answer", a.idx)
		}
		return nil
	}
	var pos atomic.Int64
	stream := v.in.stream
	nextStream := func() (int, bool) {
		p := pos.Add(1) - 1
		return int(stream[p%int64(len(stream))]), true
	}
	nextRef := func() (int, bool) { return 0, true }
	cl.drive(f.front, pool, until(time.Now().Add(warmupStream), nextStream), func(a answer) { t.record(later(a, false)) })
	// Reference answers are not the program's operations: they are
	// counted apart, and any wrong one fails the run.
	refTally := &tally{}
	refCheck := func(a answer) (int, error) {
		err := a.err
		if err == nil {
			err = checkRef(a.status, a.body, refWant)
		}
		refTally.record(err)
		return 1, err
	}
	cl.drive(rp.url(), refPool, until(time.Now().Add(phaseLen), nextRef), func(a answer) { refCheck(a) })

	// The timed window: seconds slots, each a phase on the workload's
	// servers and a phase on the reference server.
	lambCheck := func(a answer) (int, error) {
		err := later(a, true)
		t.record(err)
		return pool[a.idx].queries, err
	}
	lambCPU := func() (float64, error) { return fleetCPU(f) }
	refCPU := rp.cpuSeconds
	lamb := make([]*phase, seconds)
	refp := make([]*phase, seconds)
	steal := make([]float64, seconds)
	cpuStart, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for k := 0; k < seconds; k++ {
		s0, err := hostStealSeconds()
		if err != nil {
			return nil, err
		}
		slot := time.Now()
		if lamb[k], err = runPhase(cl, f.front, pool, nextStream, lambCheck, lambCPU); err != nil {
			return nil, err
		}
		if refp[k], err = runPhase(cl, rp.url(), refPool, nextRef, refCheck, refCPU); err != nil {
			return nil, err
		}
		s1, err := hostStealSeconds()
		if err != nil {
			return nil, err
		}
		steal[k] = stealPct(s0, s1, time.Since(slot).Seconds())
	}
	window := time.Since(start).Seconds()
	cpuEnd, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	if refTally.failed > 0 {
		return nil, fmt.Errorf("%d of %d reference requests failed: %s", refTally.failed, refTally.attempted, refTally.errs[0])
	}
	// The workload's servers sit idle through the reference phases; CPU
	// they burn there slows the reference and so flatters their figures.
	idleCPU := cpuEnd - cpuStart
	for _, l := range lamb {
		idleCPU -= l.cpu
	}
	rss := 0.0
	for _, p := range f.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	if err := f.stop(); err != nil {
		return nil, err
	}
	if err := rp.stop(); err != nil {
		return nil, err
	}
	rp = nil
	for k, h := range deferred {
		if err := checkAdaptive(&pool[k.idx].query, h.body); err != nil {
			for range h.n {
				t.fail(err)
			}
		}
	}

	// Each slot's time metrics are read against the reference phase
	// beside it: speed is the reference rate over its nominal rate, rates
	// are divided by it and times multiplied, and the metric is the median
	// over the slots. setup_s pairs each boot with the reference boot
	// after it the same way.
	var qps, p50, p90, cpu, speed, rawQPS, rawP50, refQPS, refP50 []float64
	var all []float64
	var queries float64
	for k := 0; k < seconds; k++ {
		l, r := lamb[k], refp[k]
		n := 0.0
		for _, q := range l.queries {
			n += q
		}
		queries += n
		all = append(all, l.lat...)
		if n == 0 || len(l.lat) == 0 || len(r.lat) == 0 {
			continue
		}
		sp := r.rate() / v.w.ref.qps
		sort.Float64s(l.lat)
		sort.Float64s(r.lat)
		speed = append(speed, sp)
		rawQPS = append(rawQPS, l.rate())
		rawP50 = append(rawP50, quantile(l.lat, 0.50))
		refQPS = append(refQPS, r.rate())
		refP50 = append(refP50, quantile(r.lat, 0.50))
		qps = append(qps, l.rate()/sp)
		p50 = append(p50, quantile(l.lat, 0.50)*sp)
		p90 = append(p90, quantile(l.lat, 0.90)*sp)
		cpu = append(cpu, l.cpu*1e6/n*sp)
	}
	if queries == 0 || len(qps) == 0 {
		return nil, fmt.Errorf("no query answered in the window")
	}
	norm := make([]float64, len(setup))
	for k := range setup {
		norm[k] = setup[k] * v.w.ref.bootS / refSetup[k]
	}
	sort.Float64s(all)
	slotQPS, slotRef := append([]float64(nil), rawQPS...), append([]float64(nil), refQPS...)
	return &servingRun{
		metrics: map[string]float64{
			"qps":                     median(qps),
			"latency_p50_ms":          median(p50),
			"latency_p90_ms":          median(p90),
			"server_cpu_us_per_query": median(cpu),
			"server_rss_mb":           rss,
			"setup_s":                 median(norm),
		},
		detail: map[string]any{
			"window_s":                    window,
			"slots":                       seconds,
			"slot_speed":                  speed,
			"slot_steal_pct":              steal,
			"slot_qps":                    slotQPS,
			"slot_ref_qps":                slotRef,
			"raw_qps":                     median(rawQPS),
			"raw_latency_p50_ms":          median(rawP50),
			"ref_qps":                     median(refQPS),
			"ref_latency_p50_ms":          median(refP50),
			"speed":                       median(append([]float64(nil), speed...)),
			"requests":                    len(all),
			"queries":                     queries,
			"latency_p99_ms":              quantile(all, 0.99),
			"beyond_p99":                  beyond(all, 0.99),
			"latency_p999_ms":             quantile(all, 0.999),
			"beyond_p999":                 beyond(all, 0.999),
			"setup_samples_s":             setup,
			"ref_setup_samples_s":         refSetup,
			"servers_cpu_in_ref_phases_s": idleCPU,
			"ref_requests":                refTally.attempted,
			"raw_setup_s":                 median(append([]float64(nil), setup...)),
		},
	}, nil
}

// beyond counts the samples strictly above the q-quantile of sorted.
func beyond(sorted []float64, q float64) int {
	v := quantile(sorted, q)
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// fleetCPU sums the CPU seconds of every server process.
func fleetCPU(f *fleet) (float64, error) {
	sum := 0.0
	for _, p := range f.procs {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}
