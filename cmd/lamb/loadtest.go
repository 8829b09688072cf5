package main

// lamb loadtest — a load generator against a running `lamb serve` (or
// `lamb route`). The default is closed-loop: each worker keeps one
// request in flight, the right shape for capacity planning of the
// in-process engine. With -rate N it runs open-loop instead: arrivals
// are scheduled on a fixed uniform or Poisson clock and latency is
// measured from each request's *intended* start, so tail latencies
// under overload are honest (coordinated-omission-free) — a stalled
// server cannot slow the arrival of the load that would expose it.
// Arrivals that would exceed -max-outstanding are dropped and reported,
// never silently queued. In both modes a 503's Retry-After is honored
// (sleep, then retry, up to -retry-503 times) instead of hammering a
// shedding server with an immediate retry storm; shed and retry counts
// surface in the report. The /api/v1/stats counters are sampled before and
// after, so the report can attribute throughput to cache layers (hit
// rates) and to the batched path (coalesced counter) or, against a
// router, to its forwards, retries, hedges and degradations.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lamb"
	"lamb/internal/cache"
	"lamb/internal/engine"
	"lamb/internal/ir"
	"lamb/internal/report"
	"lamb/internal/router"
)

// cmdLoadtest drives a running serve instance and reports latency
// percentiles, throughput, and cache-hit-rate deltas.
func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	target := fs.String("target", "http://127.0.0.1:8374", "base URL of the running lamb serve")
	duration := fs.Duration("duration", 5*time.Second, "how long to generate load")
	concurrency := fs.Int("concurrency", 4, "closed-loop workers, one request in flight each (ignored when -rate > 0)")
	batch := fs.Int("batch", 0, "queries per request: 0/1 = POST /api/v1/query, >1 = POST /api/v1/batch")
	batchMix := fs.Bool("batch-mix", false, "with -batch > 1: sample each query's dimensions within the base instance's power-of-two octave and request computed results")
	exprName := fs.String("expr", "aatb", "expression to query")
	instStr := fs.String("instance", "24,16,8", "instance dimensions, e.g. 24,16,8")
	strategy := fs.String("strategy", "", "selection strategy (empty = server default)")
	spread := fs.Int("spread", 4, "distinct instances cycled through (first dimension stepped), so batches exercise more than one coalesced query")
	timeoutMs := fs.Int("timeout-ms", 0, "per-request query deadline forwarded to the server (0 = none)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in requests/s; latency is measured from each intended start (0 = closed loop)")
	arrivals := fs.String("arrivals", "uniform", "open-loop arrival process: uniform or poisson")
	maxOutstanding := fs.Int("max-outstanding", 256, "open-loop cap on in-flight requests; arrivals beyond it are dropped and reported, never queued")
	retry503 := fs.Int("retry-503", 3, "times to honor a 503's Retry-After (sleep, retry) before giving the request up as shed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 || *duration <= 0 {
		return fmt.Errorf("need -concurrency >= 1 and -duration > 0")
	}
	if *rate < 0 || (*rate > 0 && *maxOutstanding < 1) {
		return fmt.Errorf("need -rate >= 0 and -max-outstanding >= 1")
	}
	if *arrivals != "uniform" && *arrivals != "poisson" {
		return fmt.Errorf("unknown -arrivals %q (want uniform or poisson)", *arrivals)
	}
	if *retry503 < 0 {
		*retry503 = 0
	}
	if *batchMix && *batch <= 1 {
		return fmt.Errorf("-batch-mix needs -batch > 1")
	}
	ex, err := lookupArity(*exprName)
	if err != nil {
		return err
	}
	inst, err := parseInstance(*instStr, ex)
	if err != nil {
		return err
	}

	// The query mix: -spread distinct instances. By default the first
	// dimension is stepped; a batch over them still coalesces duplicates
	// (batch width > spread), which is exactly the serving pattern
	// coalescing exists for. With -batch-mix every dimension is instead
	// sampled uniformly within its power-of-two octave (ir.Octave of the
	// base instance's), and every batch asks for computed results.
	if *spread < 1 {
		*spread = 1
	}
	mixRng := rand.New(rand.NewSource(0x10ad7e57)) // fixed seed: reproducible mixes across runs
	queries := make([]engine.Query, *spread)
	for i := range queries {
		qi := make([]int, len(inst))
		copy(qi, inst)
		if *batchMix {
			for j, d := range qi {
				lo := 1 << ir.Octave(d)
				qi[j] = lo + mixRng.Intn(lo) // [lo, 2*lo): same octave as d
			}
		} else {
			qi[0] += i
		}
		queries[i] = engine.Query{Expr: *exprName, Instance: qi, Strategy: *strategy}
	}

	// One idle connection per request that can be in flight at once:
	// with net/http's default of two per host, every request beyond
	// the second opens a new connection and the churn lands in the
	// measured tail.
	idle := *concurrency
	if *rate > 0 {
		idle = *maxOutstanding
	}
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: idle}}
	before, err := fetchStats(client, *target)
	if err != nil {
		return fmt.Errorf("target not reachable: %w", err)
	}

	// nextRequest builds the n-th request of the cycled mix; shared by
	// the closed- and open-loop generators.
	nextRequest := func(n int) (path string, body []byte) {
		if *batch > 1 {
			req := batchRequest{Queries: make([]engine.Query, *batch), TimeoutMs: *timeoutMs, Compute: *batchMix}
			for i := range req.Queries {
				req.Queries[i] = queries[(n+i)%len(queries)]
			}
			body, _ = json.Marshal(req)
			return "/api/v1/batch", body
		}
		req := queryRequest{Query: queries[n%len(queries)], TimeoutMs: *timeoutMs}
		body, _ = json.Marshal(req)
		return "/api/v1/query", body
	}

	var counts loadCounts
	deadline := time.Now().Add(*duration)
	var all []float64
	if *rate > 0 {
		all = runOpenLoop(client, *target, nextRequest, openLoopConfig{
			rate:           *rate,
			poisson:        *arrivals == "poisson",
			maxOutstanding: *maxOutstanding,
			retry503:       *retry503,
			deadline:       deadline,
		}, &counts)
	} else {
		all = runClosedLoop(client, *target, nextRequest, *concurrency, *retry503, deadline, &counts)
	}
	after, err := fetchStats(client, *target)
	if err != nil {
		return err
	}

	sort.Float64s(all)
	qPerReq := 1
	if *batch > 1 {
		qPerReq = *batch
	}
	okReqs := uint64(len(all))
	secs := duration.Seconds()

	if *rate > 0 {
		fmt.Printf("lamb loadtest — %s for %s, open loop at %g req/s (%s arrivals), %d queries/request\n\n",
			*target, *duration, *rate, *arrivals, qPerReq)
	} else {
		fmt.Printf("lamb loadtest — %s for %s, %d workers, %d queries/request\n\n",
			*target, *duration, *concurrency, qPerReq)
	}
	rows := [][]string{
		{"requests", fmt.Sprint(counts.requests.Load())},
		{"ok", fmt.Sprint(okReqs)},
		{"shed (503)", fmt.Sprint(counts.shed.Load())},
		{"retries (Retry-After)", fmt.Sprint(counts.retries.Load())},
		{"errors", fmt.Sprint(counts.errors.Load())},
	}
	if *rate > 0 {
		rows = append(rows,
			[]string{"dropped (outstanding cap)", fmt.Sprint(counts.dropped.Load())},
			[]string{"late sends", fmt.Sprint(counts.late.Load())},
		)
	}
	rows = append(rows,
		[]string{"requests/s", fmt.Sprintf("%.1f", float64(okReqs)/secs)},
		[]string{"queries/s", fmt.Sprintf("%.1f", float64(okReqs)*float64(qPerReq)/secs)},
		[]string{"p50 latency", fmtLatency(percentile(all, 0.50))},
		[]string{"p90 latency", fmtLatency(percentile(all, 0.90))},
		[]string{"p99 latency", fmtLatency(percentile(all, 0.99))},
		[]string{"p99.9 latency", fmtLatency(percentile(all, 0.999))},
		[]string{"max latency", fmtLatency(percentile(all, 1))},
	)
	if err := report.Table(os.Stdout, rows); err != nil {
		return err
	}

	fmt.Println()
	if err := writeStatsReport(os.Stdout, before, after); err != nil {
		return err
	}
	if n := counts.errors.Load(); n > 0 {
		return fmt.Errorf("%d request(s) failed", n)
	}
	return nil
}

// loadCounts aggregates the run's outcome counters across generators.
type loadCounts struct {
	requests atomic.Uint64 // arrivals, including dropped ones
	errors   atomic.Uint64 // transport errors and non-200/503 statuses
	shed     atomic.Uint64 // 503 responses observed (including retried ones)
	retries  atomic.Uint64 // Retry-After sleeps taken before re-sending
	dropped  atomic.Uint64 // open loop: arrivals past the outstanding cap
	late     atomic.Uint64 // open loop: sends more than one mean gap behind schedule
}

// sendShedAware posts one request, honoring Retry-After on 503: sleep
// as the server asked (capped at the run deadline), then retry, up to
// maxRetries times. Returns the final status; a 503 that survives the
// retry budget is the caller's signal the request was shed for good.
func sendShedAware(client *http.Client, url string, body []byte, maxRetries int, deadline time.Time, c *loadCounts) (int, error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		status := resp.StatusCode
		wait := retryAfter(resp)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if status != http.StatusServiceUnavailable {
			return status, nil
		}
		// Load shedding is the server working as designed; counted
		// separately so saturation is visible without polluting the
		// error column.
		c.shed.Add(1)
		if attempt >= maxRetries || time.Now().Add(wait).After(deadline) {
			return status, nil
		}
		c.retries.Add(1)
		time.Sleep(wait)
	}
}

// retryAfter reads a 503's Retry-After (delay-seconds form, the shape
// serve and route emit); absent or malformed falls back to one second.
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return time.Second
}

// runClosedLoop keeps one request in flight per worker until the
// deadline; latency is measured from the send (including any honored
// Retry-After waits, which a real client would also experience).
func runClosedLoop(client *http.Client, target string, nextRequest func(int) (string, []byte), workers, retry503 int, deadline time.Time, c *loadCounts) []float64 {
	var wg sync.WaitGroup
	latencies := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]float64, 0, 4096)
			for n := 0; time.Now().Before(deadline); n++ {
				path, body := nextRequest(n)
				start := time.Now()
				status, err := sendShedAware(client, target+path, body, retry503, deadline, c)
				elapsed := time.Since(start).Seconds()
				c.requests.Add(1)
				switch {
				case err != nil:
					c.errors.Add(1)
				case status == http.StatusServiceUnavailable:
					// shed already counted per response
				case status != http.StatusOK:
					c.errors.Add(1)
				default:
					lats = append(lats, elapsed)
				}
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	var all []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	return all
}

type openLoopConfig struct {
	rate           float64
	poisson        bool
	maxOutstanding int
	retry503       int
	deadline       time.Time
}

// runOpenLoop schedules arrivals on a fixed clock (uniform spacing, or
// exponential gaps for a Poisson process) independent of how the server
// is doing, and measures each latency from the request's *intended*
// start. That kills coordinated omission: a server that stalls keeps
// accumulating scheduled arrivals against it, and the queueing delay of
// the requests it forced to wait shows up in the tail percentiles
// instead of silently throttling the generator. Arrivals that can't be
// sent because maxOutstanding requests are already in flight are
// dropped and counted — queueing them would quietly turn the generator
// back into a closed loop.
func runOpenLoop(client *http.Client, target string, nextRequest func(int) (string, []byte), cfg openLoopConfig, c *loadCounts) []float64 {
	meanGap := time.Duration(float64(time.Second) / cfg.rate)
	if meanGap <= 0 {
		meanGap = time.Nanosecond
	}
	nextGap := func() time.Duration {
		if cfg.poisson {
			return time.Duration(rand.ExpFloat64() * float64(meanGap))
		}
		return meanGap
	}

	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		lats        []float64
		outstanding atomic.Int64
	)
	n := 0
	for intended := time.Now(); intended.Before(cfg.deadline); intended = intended.Add(nextGap()) {
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		} else if -d > meanGap {
			// The generator itself fell more than one mean gap behind
			// schedule (scheduler jitter, GC): the send is late and the
			// measured latency already includes that slip. Reported so
			// a saturated *generator* can't masquerade as a fast server.
			c.late.Add(1)
		}
		c.requests.Add(1)
		path, body := nextRequest(n)
		n++
		if outstanding.Load() >= int64(cfg.maxOutstanding) {
			c.dropped.Add(1)
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go func(intended time.Time, path string, body []byte) {
			defer wg.Done()
			defer outstanding.Add(-1)
			status, err := sendShedAware(client, target+path, body, cfg.retry503, cfg.deadline, c)
			elapsed := time.Since(intended).Seconds()
			switch {
			case err != nil:
				c.errors.Add(1)
			case status == http.StatusServiceUnavailable:
				// shed already counted per response
			case status != http.StatusOK:
				c.errors.Add(1)
			default:
				mu.Lock()
				lats = append(lats, elapsed)
				mu.Unlock()
			}
		}(intended, path, body)
	}
	wg.Wait()
	return lats
}

// lookupArity resolves an expression name to its arity for instance
// parsing, with the registered names in the error.
func lookupArity(name string) (int, error) {
	ex, err := lamb.LookupExpression(name)
	if err != nil {
		return 0, err
	}
	return ex.Arity(), nil
}

// targetStats is one /api/v1/stats sample: a serve's engine counters, or a
// router's counters when the body lists backends.
type targetStats struct {
	engine engine.Stats
	router *router.Stats
}

// fetchStats samples /api/v1/stats and tells a router from a serve by the
// router's "backends" key.
func fetchStats(client *http.Client, target string) (targetStats, error) {
	resp, err := client.Get(target + "/api/v1/stats")
	if err != nil {
		return targetStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return targetStats{}, fmt.Errorf("GET /api/v1/stats: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return targetStats{}, fmt.Errorf("reading /api/v1/stats: %w", err)
	}
	var keys struct {
		Backends json.RawMessage `json:"backends"`
	}
	if err := json.Unmarshal(body, &keys); err != nil {
		return targetStats{}, fmt.Errorf("decoding /api/v1/stats: %w", err)
	}
	var s targetStats
	if keys.Backends != nil {
		s.router = new(router.Stats)
		err = json.Unmarshal(body, s.router)
	} else {
		err = json.Unmarshal(body, &s.engine)
	}
	if err != nil {
		return targetStats{}, fmt.Errorf("decoding /api/v1/stats: %w", err)
	}
	return s, nil
}

// writeStatsReport prints what the run did to the target's counters: the
// forward ladder's for a router, the cache layers and query paths for a
// serve.
func writeStatsReport(w io.Writer, before, after targetStats) error {
	if after.router != nil {
		var b router.Stats
		if before.router != nil {
			b = *before.router
		}
		a := after.router
		return report.Table(w, [][]string{
			{"router", "delta"},
			{"forwards", fmt.Sprint(a.Forwards - b.Forwards)},
			{"retries", fmt.Sprint(a.Retries - b.Retries)},
			{"hedged", fmt.Sprint(a.Hedged - b.Hedged)},
			{"degraded_queries", fmt.Sprint(a.DegradedQueries - b.DegradedQueries)},
		})
	}
	d := statsDelta(before.engine, after.engine)
	if err := report.Table(w, [][]string{
		{"engine layer", "hits", "misses", "hit rate"},
		{"bindings", fmt.Sprint(d.Bindings.Hits), fmt.Sprint(d.Bindings.Misses), hitRate(d.Bindings)},
	}); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nqueries %d  deduped %d  coalesced %d  degraded %d\n",
		d.Queries, d.Deduped, d.Coalesced, d.DegradedQueries)
	return err
}

// statsDelta subtracts the counter fields sampled before the run from
// those sampled after, so the report reflects only this run's traffic.
func statsDelta(before, after engine.Stats) engine.Stats {
	d := after
	d.Bindings = cacheDelta(before.Bindings, after.Bindings)
	d.Queries = after.Queries - before.Queries
	d.Deduped = after.Deduped - before.Deduped
	d.Coalesced = after.Coalesced - before.Coalesced
	d.DegradedQueries = after.DegradedQueries - before.DegradedQueries
	return d
}

func cacheDelta(before, after cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:   after.Hits - before.Hits,
		Misses: after.Misses - before.Misses,
		Size:   after.Size,
	}
}

func hitRate(s cache.Stats) string {
	total := s.Hits + s.Misses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(s.Hits)/float64(total))
}

// percentile reads the p-quantile from a sorted latency slice by
// nearest rank: the ⌈p·n⌉-th smallest sample, so p = 1 is the maximum
// and 99.9% of 1000 samples is the 999th, not the maximum.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := min(max(int(math.Ceil(p*float64(len(sorted))))-1, 0), len(sorted)-1)
	return sorted[idx]
}

func fmtLatency(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
