package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lamb/internal/engine"
	"lamb/internal/faultinject"
)

// Config parameterises a Router. Zero values take the defaults noted on
// each field.
type Config struct {
	// Backends are the `lamb serve` base URLs the ring shards over.
	// At least one is required.
	Backends []string

	// ProbeEvery is the health-probe interval (default 1s); ProbeTimeout
	// bounds one probe (default 500ms); DownAfter is the consecutive
	// probe failures that mark a backend down (default 2).
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration
	DownAfter    int

	// Retries is how many additional backends a failed forward tries
	// (default 2). BackoffBase/BackoffMax shape the capped exponential
	// backoff between attempts (defaults 25ms/500ms; full jitter).
	// AttemptTimeout bounds each individual attempt (default 5s).
	Retries        int
	BackoffBase    time.Duration
	BackoffMax     time.Duration
	AttemptTimeout time.Duration

	// HedgeAfter, when positive, arms tail-latency hedging: if the
	// owning shard hasn't answered within HedgeAfter, the same query
	// races on the next candidate and the first success wins. Hedging
	// applies to timed strategies (oracle) and to adaptive queries whose
	// last answer for the shard key reported, in its ConfidenceHeader,
	// confidence below DefaultHedgeConfidence. Off by default — hedging
	// doubles backend work, worth it only when tail latency matters more.
	HedgeAfter time.Duration

	// MergeEvery, when positive, runs the anti-entropy gossip loop:
	// each round pulls every up backend's local outcome snapshot and
	// pushes it to the others, weights discounted by mergeScale.
	MergeEvery time.Duration

	// Local, when set, is the in-process engine the router degrades to
	// when no backend can answer: selection keeps working on the
	// profile-less min-flops discriminant, stamped Degraded "no-backend".
	Local *engine.Engine
}

// DegradedNoBackend stamps records the router answered from its local
// fallback engine because no backend was reachable — the rung below the
// engine's own "no-profile"/"deadline" ladder.
const DegradedNoBackend = "no-backend"

// backendState is everything the router tracks per backend.
type backendState struct {
	url   string
	conns *connPool
	br    *breaker
	up    atomic.Bool
	// consecFails is touched only by the prober goroutine.
	consecFails int
	probes      atomic.Uint64
	probeFails  atomic.Uint64
	forwards    atomic.Uint64
	failures    atomic.Uint64
}

// Router is the shard-routing front end. Build with New, launch the
// background probe/gossip loops with Start, and serve Handler.
type Router struct {
	cfg      Config
	ring     *ring
	backends []*backendState
	byURL    map[string]*backendState

	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup

	forwardsTotal  atomic.Uint64
	retriesTotal   atomic.Uint64
	hedged         atomic.Uint64
	hedgeWins      atomic.Uint64
	lowConfHedges  atomic.Uint64
	degraded       atomic.Uint64
	mergeRounds    atomic.Uint64
	mergeErrors    atomic.Uint64
	mergedOutcomes atomic.Uint64

	// confMu guards conf: the last confidence each shard's answer
	// reported, by shard hash, feeding lowConfidence's hedge-eligibility
	// check. Keys whose hashes collide already share a shard.
	confMu sync.Mutex
	conf   map[uint64]float64
}

// DefaultHedgeConfidence is the confidence floor for adaptive-query
// hedging: when a shard key's last answer was less sure than this that
// its top pick is actually fastest, the next adaptive query for that
// key is worth racing on two backends — an uncertain answer arriving
// late is the worst of both.
const DefaultHedgeConfidence = 0.5

// maxConfKeys bounds the confidence map. At the cap, known keys keep
// updating and new keys are dropped — hedging is an optimisation, not
// a correctness concern, so forgetting the long tail is fine.
const maxConfKeys = 4096

// ConfidenceHeader carries a query record's confidence beside its body,
// so the router can read it without parsing the record.
const ConfidenceHeader = "Lamb-Confidence"

// SetConfidence sets ConfidenceHeader to c, formatted to parse back to
// the same bits.
func SetConfidence(w http.ResponseWriter, c float64) {
	w.Header().Set(ConfidenceHeader, strconv.FormatFloat(c, 'g', -1, 64))
}

// observeConfidence remembers the confidence a successful query answer
// reported in its ConfidenceHeader for its shard hash. Answers without
// the header (old backends) or with one that does not parse are
// ignored.
func (rt *Router) observeConfidence(key uint64, res attemptResult) {
	if res.err != nil || res.status != http.StatusOK {
		return
	}
	v := res.header[ConfidenceHeader]
	if len(v) == 0 {
		return
	}
	c, err := strconv.ParseFloat(v[0], 64)
	if err != nil {
		return
	}
	rt.confMu.Lock()
	if _, known := rt.conf[key]; known || len(rt.conf) < maxConfKeys {
		rt.conf[key] = c
	}
	rt.confMu.Unlock()
}

// lowConfidence reports whether the shard hash's last observed answer
// was below the hedge-eligibility floor. Keys never seen report false:
// with no evidence of uncertainty, hedging is not worth doubled work.
func (rt *Router) lowConfidence(key uint64) bool {
	rt.confMu.Lock()
	c, known := rt.conf[key]
	rt.confMu.Unlock()
	return known && c < DefaultHedgeConfidence
}

// New validates the config, fills defaults, and builds the router.
// Backends start optimistically up — the first probe round (Start runs
// one immediately) demotes any that are not.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 500 * time.Millisecond
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 5 * time.Second
	}
	rt := &Router{
		cfg:   cfg,
		ring:  newRing(cfg.Backends),
		byURL: make(map[string]*backendState, len(cfg.Backends)),
		stop:  make(chan struct{}),
		conf:  make(map[uint64]float64),
	}
	for _, u := range cfg.Backends {
		if _, dup := rt.byURL[u]; dup {
			return nil, fmt.Errorf("router: duplicate backend %s", u)
		}
		conns, err := newConnPool(u)
		if err != nil {
			return nil, err
		}
		// A backend's breaker opens once at least 5 of its last 20
		// forwards are in and half of them failed, and fails fast for 2 s
		// before a half-open trial.
		b := &backendState{
			url:   u,
			conns: conns,
			br:    newBreaker(20, 5, 0.5, 2*time.Second),
		}
		b.up.Store(true)
		rt.byURL[u] = b
		rt.backends = append(rt.backends, b)
	}
	return rt, nil
}

// Start launches the health-probe loop (after one synchronous round, so
// dead configured backends are demoted before traffic flows) and, when
// MergeEvery is set, the gossip loop. Stop both with Close.
func (rt *Router) Start() {
	rt.probeAll()
	rt.loops.Add(1)
	go func() {
		defer rt.loops.Done()
		rt.probeLoop()
	}()
	if rt.cfg.MergeEvery > 0 {
		rt.loops.Add(1)
		go func() {
			defer rt.loops.Done()
			rt.gossipLoop()
		}()
	}
}

// Close stops the background loops, waits for them, and closes every
// idle backend connection.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.loops.Wait()
	for _, b := range rt.backends {
		b.conns.close()
	}
}

// BackendStats is one backend's row in Stats.
type BackendStats struct {
	URL           string `json:"url"`
	Up            bool   `json:"up"`
	Breaker       string `json:"breaker"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Forwards      uint64 `json:"forwards"`
	Failures      uint64 `json:"failures"`
}

// Stats is the router's /api/stats body: fleet state plus the routing
// and gossip counters.
type Stats struct {
	Backends  []BackendStats `json:"backends"`
	Up        int            `json:"up"`
	Forwards  uint64         `json:"forwards"`
	Retries   uint64         `json:"retries"`
	Hedged    uint64         `json:"hedged"`
	HedgeWins uint64         `json:"hedge_wins"`
	// LowConfidenceHedges counts adaptive queries that became
	// hedge-eligible because their shard key's last answer reported low
	// confidence (a subset of queries, not of Hedged: eligibility arms
	// the race; Hedged counts races the hedge timer actually fired for).
	LowConfidenceHedges uint64 `json:"low_confidence_hedges"`
	DegradedQueries     uint64 `json:"degraded_queries"`
	MergeRounds         uint64 `json:"merge_rounds"`
	MergeErrors         uint64 `json:"merge_errors"`
	MergedOutcomes      uint64 `json:"merged_outcomes"`
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() Stats {
	s := Stats{
		Forwards:            rt.forwardsTotal.Load(),
		Retries:             rt.retriesTotal.Load(),
		Hedged:              rt.hedged.Load(),
		HedgeWins:           rt.hedgeWins.Load(),
		LowConfidenceHedges: rt.lowConfHedges.Load(),
		DegradedQueries:     rt.degraded.Load(),
		MergeRounds:         rt.mergeRounds.Load(),
		MergeErrors:         rt.mergeErrors.Load(),
		MergedOutcomes:      rt.mergedOutcomes.Load(),
	}
	for _, b := range rt.backends {
		state, opens := b.br.snapshot()
		up := b.up.Load()
		if up {
			s.Up++
		}
		s.Backends = append(s.Backends, BackendStats{
			URL:           b.url,
			Up:            up,
			Breaker:       state,
			BreakerOpens:  opens,
			Probes:        b.probes.Load(),
			ProbeFailures: b.probeFails.Load(),
			Forwards:      b.forwards.Load(),
			Failures:      b.failures.Load(),
		})
	}
	return s
}

// errNoBackend reports a forward that found no admissible backend (all
// down or breaker-open) or exhausted its attempts.
var errNoBackend = errors.New("no backend available")

// attemptResult is one backend exchange's outcome.
type attemptResult struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// authoritative reports whether the attempt's response settles the
// request: any transport-level success whose status does not indicate a
// backend-side failure. 5xx (including 503 sheds) are retried on
// another backend; 504 is the caller's own deadline expiring downstream
// — retrying elsewhere cannot beat a clock that already ran out.
func (a attemptResult) authoritative() bool {
	return a.err == nil && (a.status < 500 || a.status == http.StatusGatewayTimeout)
}

// attempt forwards payload to one backend and classifies the outcome
// into the breaker.
func (rt *Router) attempt(ctx context.Context, b *backendState, path string, payload []byte) attemptResult {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	b.forwards.Add(1)
	res := rt.roundTrip(ctx, b, path, payload)
	if res.authoritative() {
		b.br.success()
	} else {
		b.failures.Add(1)
		b.br.failure()
	}
	return res
}

// roundTrip is the raw HTTP exchange, with the "router.forward"
// failpoint ahead of it so the chaos suite can inject transport errors
// without a real network fault.
func (rt *Router) roundTrip(ctx context.Context, b *backendState, path string, payload []byte) attemptResult {
	if err := faultinject.FireCtx(ctx, "router.forward"); err != nil {
		return attemptResult{err: err}
	}
	return b.conns.exchange(ctx, path, payload)
}

// forward runs the retry ladder over cands (ring order): skip down or
// breaker-open backends, back off with full jitter between attempts,
// and stop at the first authoritative answer. hedge arms tail-latency
// hedging for the first attempt.
func (rt *Router) forward(ctx context.Context, cands []string, path string, payload []byte, hedge bool) attemptResult {
	rt.forwardsTotal.Add(1)
	attempts := 0
	last := attemptResult{err: errNoBackend}
	for i := 0; i < len(cands) && attempts <= rt.cfg.Retries; i++ {
		b := rt.byURL[cands[i]]
		if !b.up.Load() || !b.br.allow() {
			continue
		}
		if attempts > 0 {
			rt.retriesTotal.Add(1)
			if err := rt.backoff(ctx, attempts); err != nil {
				return last
			}
		}
		attempts++
		var res attemptResult
		if hedge && rt.cfg.HedgeAfter > 0 && attempts == 1 {
			res = rt.attemptHedged(ctx, b, rt.nextAllowed(cands, i), path, payload)
		} else {
			res = rt.attempt(ctx, b, path, payload)
		}
		if res.authoritative() {
			return res
		}
		last = res
	}
	return last
}

// nextAllowed returns the first admissible backend after position i, or
// nil — the hedge target.
func (rt *Router) nextAllowed(cands []string, i int) *backendState {
	for j := i + 1; j < len(cands); j++ {
		b := rt.byURL[cands[j]]
		if b.up.Load() && b.br.allow() {
			return b
		}
	}
	return nil
}

// attemptHedged races the primary against a staggered secondary: the
// secondary launches only if the primary hasn't answered within
// HedgeAfter, and the first authoritative answer wins. Used for timed
// strategies, whose latency is dominated by backend-side measurement —
// exactly the work a straggling backend stretches into the tail.
func (rt *Router) attemptHedged(ctx context.Context, primary, secondary *backendState, path string, payload []byte) attemptResult {
	if secondary == nil {
		return rt.attempt(ctx, primary, path, payload)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type hedgeResult struct {
		attemptResult
		hedge bool
	}
	results := make(chan hedgeResult, 2)
	go func() { results <- hedgeResult{rt.attempt(ctx, primary, path, payload), false} }()
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	select {
	case res := <-results:
		if res.authoritative() {
			return res.attemptResult
		}
		// Primary failed outright before the hedge window — plain
		// failover, not a hedge.
		return rt.attempt(ctx, secondary, path, payload)
	case <-timer.C:
		rt.hedged.Add(1)
		go func() { results <- hedgeResult{rt.attempt(ctx, secondary, path, payload), true} }()
	}
	first := <-results
	if first.authoritative() {
		if first.hedge {
			rt.hedgeWins.Add(1)
		}
		return first.attemptResult
	}
	second := <-results
	if second.authoritative() {
		if second.hedge {
			rt.hedgeWins.Add(1)
		}
		return second.attemptResult
	}
	return first.attemptResult
}

// backoff sleeps the capped exponential delay with full jitter, bailing
// out if the request context dies first.
func (rt *Router) backoff(ctx context.Context, attempt int) error {
	d := rt.cfg.BackoffBase << (attempt - 1)
	if d > rt.cfg.BackoffMax || d <= 0 {
		d = rt.cfg.BackoffMax
	}
	d = time.Duration(rand.Int63n(int64(d)) + 1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxRelayBytes caps a relayed backend response; matches the serve
// layer's request cap. A longer answer fails its attempt.
const maxRelayBytes = 4 << 20
