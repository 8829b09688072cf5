// Package engine is the concurrency-safe query engine for algorithm
// selection: the single entry point that answers "for this expression
// and these operand sizes, which algorithm should I run?".
//
// It splits the selection pipeline into cacheable layers:
//
//   - symbolic layer: each expression's algorithm set is enumerated
//     once per process, symbolically (lamb/internal/ir's SymbolicSet),
//     behind the registry names resolve through (expr.Lookup), so
//     repeated queries never re-enumerate.
//   - binding layer: bound algorithm sets are memoised per
//     (expression, instance) in a bounded LRU, so repeated instances
//     skip even the cheap bind step — and, crucially, yield
//     pointer-stable algorithms for the layer below. Each entry also
//     memoises its last ranking, reused while the posterior is
//     unchanged.
//   - execution layer: timing-based strategies measure through the
//     executor, which compiles one plan per measurement
//     (lamb/internal/exec.Measured keeps it for that measurement's
//     repetitions); compute compiles every plan, fused chunk or single
//     query, into one engine-owned slab from the bound set's memoised
//     layouts.
//   - serving layer: Do deduplicates concurrent identical queries with
//     a singleflight and answers each from one posterior — prior
//     predictions blended with nearby feedback (lamb/internal/selection)
//     — from which the strategy picks and the ranking is rendered,
//     producing the machine-readable Record that both
//     `lamb select -json` and `lamb serve` emit.
//
// The CLI experiment pipeline, strategy evaluation, and the HTTP server
// all route through one Engine, so there is one pipeline rather than
// three. Cache effectiveness is observable through Stats.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lamb/internal/cache"
	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/faultinject"
	"lamb/internal/ir"
	"lamb/internal/outcomes"
	"lamb/internal/profile"
	"lamb/internal/selection"
	"lamb/internal/xrand"
)

// Cache-capacity defaults. Bound sets are small (≤ tens of algorithms
// of a few hundred bytes), so the binding layer can be generous.
const (
	DefaultBindEntries = 512
	// DefaultFeedbackEntries bounds the feedback outcome store: distinct
	// (expression, instance) records kept for the adaptive strategy.
	// Records are small (an instance, its log coordinates, a few
	// per-algorithm running means), so the store can hold many instance
	// regions, but unlike an LRU cache an unbounded store would grow
	// with abusive feedback traffic.
	DefaultFeedbackEntries = 4096
)

// DefaultStrategy is the strategy used when a query names none: the
// paper's baseline discriminant.
const DefaultStrategy = "min-flops"

// Config parameterises an Engine. The zero value is usable: simulated
// backend, the paper's 10 repetitions, default cache capacities.
type Config struct {
	// Executor runs timing-based strategies (oracle). Defaults to the
	// simulated backend on the calibrated machine. The engine times
	// through it under its execution lock and never reconfigures it.
	Executor exec.Executor
	// Reps is the timer's repetition count (default 10, the paper's).
	Reps int
	// BindEntries bounds the binding-layer LRU (default 512).
	BindEntries int
	// Profiles, if set, enables the profile-backed strategies:
	// "min-predicted" (FLOPs combined with kernel performance profiles —
	// the paper's proposed discriminant) and "adaptive" (that prediction
	// refined online by measured outcomes fed back through Feedback).
	Profiles *profile.Set
	// ProfileMeta is the provenance of Profiles (typically the Meta
	// loaded alongside a persisted store); surfaced in Stats and in the
	// records of profile-backed queries.
	ProfileMeta profile.Meta
	// FeedbackEntries bounds the feedback outcome store (default 4096
	// distinct (expression, instance) records, least-recently-touched
	// evicted).
	FeedbackEntries int
	// OutcomeHalfLife is the exponential decay half-life applied to
	// recorded outcome weights, so stale (in particular pre-restart)
	// measurements cannot dominate fresh evidence forever. Zero disables
	// decay.
	OutcomeHalfLife time.Duration
	// ExploreRate, when positive, enables Thompson-sampling exploration:
	// roughly this fraction of adaptive answers (deterministically
	// rate-capped, values above 1 clamped) are drawn from the posterior
	// instead of taking its argmin, so under-observed regions eventually
	// collect feedback on the alternatives. Zero — the default — never
	// explores; degraded answers never explore regardless.
	ExploreRate float64
}

// Query is one selection request.
type Query struct {
	// Expr names a registered expression (case-insensitive).
	Expr string `json:"expr"`
	// Instance assigns the expression's dimensions.
	Instance expr.Instance `json:"instance"`
	// Strategy selects the discriminant: "min-flops" (default),
	// "min-predicted" or "adaptive" (need profiles), or "oracle"
	// (measures every algorithm).
	Strategy string `json:"strategy,omitempty"`
}

// Candidate is one algorithm of the queried set, as it appears in the
// selection record.
type Candidate struct {
	// Index is the paper's 1-based algorithm number.
	Index int `json:"index"`
	// Name is the call-sequence rendering.
	Name string `json:"name"`
	// Flops is the algorithm's FLOP count at the queried instance.
	Flops float64 `json:"flops"`
}

// Record is the machine-readable selection answer. `lamb select -json`
// and the `lamb serve` endpoint emit exactly this structure.
type Record struct {
	Expr     string        `json:"expr"`
	Instance expr.Instance `json:"instance"`
	Strategy string        `json:"strategy"`
	Backend  string        `json:"backend"`
	// Selected is the chosen algorithm.
	Selected Candidate `json:"selected"`
	// NumAlgorithms is the size of the enumerated set.
	NumAlgorithms int `json:"num_algorithms"`
	// Profile is the provenance tag of the profile store the answer
	// derives from (profile-backed strategies only).
	Profile string `json:"profile,omitempty"`
	// Requested is the strategy the query asked for when the answer
	// degraded to a different one; Degraded is the reason ("no-profile",
	// "deadline"). Strategy always names the strategy actually used.
	Requested string `json:"requested_strategy,omitempty"`
	Degraded  string `json:"degraded,omitempty"`
	// Candidates lists the whole set in enumeration order.
	Candidates []Candidate `json:"candidates"`
	// Ranking lists every candidate ordered by posterior mean time
	// (fastest first) with its probability of actually being fastest —
	// the discriminant test of arXiv:2209.03258 applied to the engine's
	// current evidence. Always present, whatever strategy answered.
	Ranking []RankEntry `json:"ranking"`
	// Confidence is the closed-form probability that the ranking's head
	// beats the runner-up: near 0.5 the top pick is a coin flip, near 1
	// it is settled.
	Confidence float64 `json:"confidence"`
	// Anomaly flags the paper's mispredict regions: the evidence says the
	// min-FLOPs pick is probably not the fastest algorithm here.
	Anomaly bool `json:"anomaly,omitempty"`
	// Explore marks an adaptive answer drawn by Thompson sampling from
	// the posterior rather than its argmin (see Config.ExploreRate).
	Explore bool `json:"explore,omitempty"`
}

// Stats exposes the engine's per-layer cache counters.
type Stats struct {
	// Bindings counts binding-layer lookups of bound algorithm sets.
	Bindings cache.Stats `json:"bindings"`
	// Queries counts answered queries; Deduped counts those answered by an
	// in-flight identical query (singleflight hits).
	Queries uint64 `json:"queries"`
	Deduped uint64 `json:"deduped"`
	// Coalesced counts queries answered by an identical query of the
	// same Do request (within-request dedup, before the singleflight
	// layer).
	Coalesced uint64 `json:"coalesced"`
	// FusedQueries counts queries that went through a fused plan: timed
	// queries measured through fused plans (requests of two or more
	// queries, or with Compute), and queries whose result was computed
	// through a shared fused plan (Do with Compute).
	FusedQueries uint64 `json:"fused_queries"`
	// FuseRejected counts queries that could not take a fused path, by
	// reason.
	FuseRejected FuseRejects `json:"fuse_rejected"`
	// Feedback counts outcomes recorded through Engine.Feedback;
	// FeedbackInstances is the number of distinct (expression, instance)
	// points those outcomes cover.
	Feedback          uint64 `json:"feedback"`
	FeedbackInstances int    `json:"feedback_instances"`
	// AdaptiveQueries counts queries answered by the adaptive strategy;
	// AdaptiveInformed counts those for which recorded outcomes within
	// the neighbourhood radius actually informed the choice.
	AdaptiveQueries  uint64 `json:"adaptive_queries"`
	AdaptiveInformed uint64 `json:"adaptive_informed"`
	// AnomalousQueries counts answers whose record carried the anomaly
	// flag: the evidence contradicted the min-FLOPs discriminant there
	// (the paper's mispredict regions, as seen in live traffic).
	AnomalousQueries uint64 `json:"anomalous_queries"`
	// ExploreQueries counts adaptive answers drawn by Thompson sampling
	// instead of the posterior argmin (Config.ExploreRate).
	ExploreQueries uint64 `json:"explore_queries"`
	// DegradedQueries counts queries answered by a strategy further down
	// the degradation ladder than the one requested (no profile store,
	// deadline too tight to measure).
	DegradedQueries uint64 `json:"degraded_queries"`
	// FeedbackRestored counts outcomes restored from a snapshot at boot
	// (Engine.RestoreOutcomes), as opposed to fed back live.
	FeedbackRestored uint64 `json:"feedback_restored"`
	// MergeRequests counts Engine.MergeOutcomes calls (peer snapshots
	// merged in); MergedOutcomes counts the outcomes they installed.
	MergeRequests  uint64 `json:"merge_requests"`
	MergedOutcomes uint64 `json:"merged_outcomes"`
	// Profile is the provenance of the loaded profile store (nil when
	// the engine serves without profiles).
	Profile *ProfileInfo `json:"profile,omitempty"`
	// Enumerations is the process-wide count of symbolic enumerations
	// (ir.Enumerations): flat across repeated queries.
	Enumerations uint64 `json:"enumerations"`
	// Backend names the executor.
	Backend string `json:"backend"`
}

// FuseRejects breaks down, by reason, the queries that asked for a
// fused path (fused timed measurement or fused result execution) but
// could not take it:
//
//   - Unregistered: the executor has no batched path (e.g. the
//     simulated backend).
//   - TooBigArena: some candidate's instance arena exceeds the fused
//     slab budget, so the set is outside the fused regime.
//   - HeteroPrepadding: a mixed bucket's stride spread was too wide —
//     padding every instance to the largest stride would waste most of
//     the smaller instances' slabs.
type FuseRejects struct {
	TooBigArena      uint64 `json:"too_big_arena"`
	Unregistered     uint64 `json:"unregistered"`
	HeteroPrepadding uint64 `json:"hetero_prepadding"`
}

// ProfileInfo is the provenance block Stats carries for a loaded
// profile store.
type ProfileInfo struct {
	// ID is the short provenance tag (profile.Meta.ID) query records
	// reference.
	ID string `json:"id"`
	// Generation counts profile-store installations on this engine: 1
	// for the store loaded at boot, incremented by every hot reload
	// (Engine.ReloadProfiles), so an operator can confirm a reload took.
	Generation uint64 `json:"generation"`
	profile.Meta
}

// profileState is the engine's RCU-published profile store: everything
// derived from one loaded store, swapped atomically by ReloadProfiles
// while in-flight queries keep the state they loaded at entry. The
// strategies built over it are value types holding only the set
// pointer, so a state never mutates after publication.
type profileState struct {
	set       *profile.Set
	info      *ProfileInfo
	predicted selection.MinPredicted
}

// strategyRun is one query's resolved strategy: what was requested and
// what actually answers after walking the degradation ladder.
type strategyRun struct {
	// name is the strategy that answers; requested differs from name
	// (and degraded holds the reason) when the ladder was walked.
	name      string
	requested string
	degraded  string
	profileID string
}

// flight is one in-flight query the singleflight layer deduplicates
// against. done is closed after rec/set/err are final, so waiters can
// select against their own context's cancellation.
type flight struct {
	done chan struct{}
	rec  *Record
	set  *boundSet // the bound set rec was answered from
	err  error
}

// Engine is the concurrency-safe selection engine. All methods are safe
// for concurrent use.
type Engine struct {
	timer *exec.Timer

	// mu guards the binding LRU.
	mu   sync.Mutex
	bind *cache.LRU[bindKey, *boundSet]

	// execMu serialises timing-based strategies: executors measure wall
	// time, so concurrent measurement would contend for the cores being
	// measured (and the measured executor is single-threaded anyway).
	// It also guards slab, the arena every fused chunk plan of a
	// Compute request is compiled into, run on and released from.
	execMu sync.Mutex
	slab   exec.Slab

	// sfMu guards the singleflight table.
	sfMu     sync.Mutex
	inflight map[queryKey]*flight

	queries   atomic.Uint64
	deduped   atomic.Uint64
	coalesced atomic.Uint64
	fused     atomic.Uint64

	// Fused-path reject counters, by reason (see FuseRejects).
	rejTooBig       atomic.Uint64
	rejUnregistered atomic.Uint64
	rejHetero       atomic.Uint64

	// The feedback path: measured outcomes recorded per (expression,
	// instance), searched by log-shape distance for adaptive queries,
	// time-decayed, snapshot/restorable (lamb/internal/outcomes).
	outcomes         *outcomes.Store
	feedback         atomic.Uint64
	restored         atomic.Uint64
	mergeReqs        atomic.Uint64
	mergedOut        atomic.Uint64
	adaptiveQueries  atomic.Uint64
	adaptiveInformed atomic.Uint64
	degraded         atomic.Uint64

	// The discriminant-test path: anomalous counts answers that flagged
	// the min-FLOPs pick as probably wrong; exploreSeen paces the
	// deterministic Thompson-sampling rate cap (every exploreEvery-th
	// eligible adaptive answer explores; 0 disables); explored counts the
	// answers that did.
	anomalous    atomic.Uint64
	exploreSeen  atomic.Uint64
	explored     atomic.Uint64
	exploreEvery int

	// prof is the RCU-published profile state (nil without profiles):
	// queries load it once at entry, ReloadProfiles swaps it atomically,
	// in-flight queries finish on the state they started with. reloadGen
	// counts installations.
	prof      atomic.Pointer[profileState]
	reloadGen atomic.Uint64
}

// bindKey identifies a bound algorithm set: canonical expression name
// plus the instance.
type bindKey struct {
	expr string
	inst ir.Key
}

// boundSet is one binding-LRU entry: the algorithm set bound for an
// (expression, instance), plus the last prior predicted for it and the
// last ranking rendered from it. The prior is a pure function of the
// set and the profile state, so its memo is valid exactly while the
// state it was predicted under is the loaded one: a reload publishes a
// new state pointer and so invalidates it. The ranking is a pure
// function of the set and its posterior, so its memo is valid exactly
// while the posterior is unchanged — a profile reload or nearby
// feedback changes the posterior and so invalidates it.
//
// lays memoises the plan layout of each algorithm the engine has
// executed or measured fused, so a set's algorithm is validated and
// laid out once, not once per request; the layouts die with the entry.
type boundSet struct {
	algs     []expr.Algorithm
	prior    atomic.Pointer[priorMemo]
	memo     atomic.Pointer[rankMemo]
	laysOnce sync.Once
	lays     []atomic.Pointer[exec.Layout]
}

// priorMemo is a bound set's last prior and the profile state (nil
// without profiles) it was predicted under. It is immutable once
// published, and holding the state keeps its pointer from being reused
// by a later one.
type priorMemo struct {
	st    *profileState
	prior []float64
}

// predict returns the set's prior under st: one prediction per
// algorithm, from the profile store when one is loaded and from FLOP
// counts otherwise (wrong scale, same order). It is predicted once per
// set and state; callers treat it as read-only.
func (b *boundSet) predict(st *profileState) []float64 {
	if m := b.prior.Load(); m != nil && m.st == st {
		return m.prior
	}
	var predictor selection.Predictor = selection.FlopsPredictor{}
	if st != nil {
		predictor = st.predicted
	}
	prior := selection.Predict(predictor, b.algs)
	b.prior.Store(&priorMemo{st: st, prior: prior})
	return prior
}

// layout returns the plan layout of algs[i], laying it out on first
// use, or nil if the algorithm does not validate (executing it then
// reports why). Concurrent first uses keep the first layout
// stored, so every caller sees one pointer per algorithm.
func (b *boundSet) layout(i int) *exec.Layout {
	b.laysOnce.Do(func() { b.lays = make([]atomic.Pointer[exec.Layout], len(b.algs)) })
	if lay := b.lays[i].Load(); lay != nil {
		return lay
	}
	lay, err := exec.NewLayout(&b.algs[i])
	if err != nil {
		return nil
	}
	if b.lays[i].CompareAndSwap(nil, lay) {
		return lay
	}
	return b.lays[i].Load()
}

// New returns an Engine for the given configuration.
func New(cfg Config) *Engine {
	ex := cfg.Executor
	if ex == nil {
		ex = exec.NewDefaultSimulated()
	}
	timer := exec.NewTimer(ex)
	if cfg.Reps > 0 {
		timer.Reps = cfg.Reps
	}
	bindEntries := cfg.BindEntries
	if bindEntries <= 0 {
		bindEntries = DefaultBindEntries
	}
	feedbackEntries := cfg.FeedbackEntries
	if feedbackEntries <= 0 {
		feedbackEntries = DefaultFeedbackEntries
	}
	e := &Engine{
		timer:    timer,
		bind:     cache.NewLRU[bindKey, *boundSet](bindEntries),
		inflight: make(map[queryKey]*flight),
		outcomes: outcomes.NewStore(feedbackEntries, cfg.OutcomeHalfLife),
	}
	e.exploreEvery = exploreInterval(cfg.ExploreRate)
	if cfg.Profiles != nil {
		e.ReloadProfiles(cfg.Profiles, cfg.ProfileMeta)
	}
	return e
}

// ReloadProfiles atomically installs a profile store (and its derived
// strategies) without pausing queries: the new state is published with
// one pointer swap, in-flight queries finish on the store they loaded at
// entry, and subsequent queries see only the new one. Returns the
// installed generation (1 for the store loaded at boot). This is the
// hot-reload path behind `lamb serve`'s SIGHUP and /api/admin/reload.
func (e *Engine) ReloadProfiles(set *profile.Set, meta profile.Meta) uint64 {
	if set == nil {
		panic("engine: ReloadProfiles with a nil profile set")
	}
	info := &ProfileInfo{Meta: meta}
	info.ID = meta.ID()
	info.Generation = e.reloadGen.Add(1)
	e.prof.Store(&profileState{
		set:       set,
		info:      info,
		predicted: selection.MinPredicted{Profiles: set},
	})
	return info.Generation
}

// Timer returns the engine's timer; experiment runners share it so all
// measurement flows through the engine's executor.
func (e *Engine) Timer() *exec.Timer { return e.timer }

// Strategies returns the names of the known strategies, for error
// messages and the serve endpoint. All four are always accepted: the
// profile-backed ones degrade to min-flops (with the record stamped)
// when no profile store is loaded.
func (e *Engine) Strategies() []string {
	return []string{"adaptive", "min-flops", "min-predicted", "oracle"}
}

// Expression returns an engine-backed view of the named expression:
// its Algorithms method binds through the engine's caches. The returned
// sets are shared and must be treated as read-only — which every
// runner in this repository already does.
func (e *Engine) Expression(name string) (expr.Expression, error) {
	x, err := expr.Lookup(name)
	if err != nil {
		return nil, err
	}
	return cachedExpr{Expression: x, eng: e}, nil
}

// Algorithms returns the bound algorithm set for (expression name,
// instance) through the binding-layer LRU.
func (e *Engine) Algorithms(name string, inst expr.Instance) ([]expr.Algorithm, error) {
	x, err := expr.Lookup(name)
	if err != nil {
		return nil, err
	}
	b, err := e.bound(x, inst)
	if err != nil {
		return nil, err
	}
	return b.algs, nil
}

// bound is the binding layer: memoised bound sets per (expression,
// instance). Binding runs outside the lock — it allocates the whole set,
// and a chain's first bind also enumerates it — so it does not stall
// unrelated queries. Concurrent misses of the same key may both bind,
// but the double-check keeps one winner in the cache and everyone
// returns it, so the sets stay pointer-stable — the layouts memoised
// in a set, fused compute's homogeneous chunks and the measured
// executor's per-measurement plan all key by those pointers.
func (e *Engine) bound(x expr.Expression, inst expr.Instance) (*boundSet, error) {
	if err := x.Validate(inst); err != nil {
		return nil, err
	}
	key := bindKey{expr: x.Name(), inst: inst.Key()}
	e.mu.Lock()
	if b, ok := e.bind.Get(key); ok {
		e.mu.Unlock()
		return b, nil
	}
	e.mu.Unlock()
	b := &boundSet{algs: x.Algorithms(inst)}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.bind.Peek(key); ok {
		return cached, nil // a concurrent bind won; use its pointers
	}
	e.bind.Put(key, b)
	return b, nil
}

// resolveStrategy names the strategy that answers strat against the
// given profile state, walking the degradation ladder when the state
// cannot support the request: a profile-backed strategy without a
// loaded profile store answers as min-flops with the record stamped
// requested_strategy + degraded="no-profile". Unknown names are errors,
// never degraded — a typo must not silently serve the wrong strategy.
func (e *Engine) resolveStrategy(strat string, st *profileState) (strategyRun, error) {
	run := strategyRun{name: strat, requested: strat}
	switch strat {
	case "min-flops", "oracle":
		// Always available: neither needs a profile store.
	case "min-predicted", "adaptive":
		if st == nil {
			return run.degrade(DegradedNoProfile), nil
		}
		run.profileID = st.info.ID
	default:
		return strategyRun{}, fmt.Errorf("engine: unknown strategy %q (registered: %s)", strat, strings.Join(e.Strategies(), ", "))
	}
	return run, nil
}

// Degradation reasons stamped into Record.Degraded.
const (
	// DegradedNoProfile: a profile-backed strategy was requested but no
	// profile store is loaded.
	DegradedNoProfile = "no-profile"
	// DegradedDeadline: the request deadline expired while a timed
	// strategy was measuring, so the engine answered from FLOP counts
	// instead of blocking past the deadline.
	DegradedDeadline = "deadline"
)

// degrade drops a run to the bottom of the ladder (min-flops: always
// available, never measures) and records why.
func (run strategyRun) degrade(reason string) strategyRun {
	run.name = "min-flops"
	run.degraded = reason
	run.profileID = ""
	return run
}

// answer runs the cached pipeline for one query: bind (or fetch) the
// algorithm set, build the evidence, apply the strategy, render the
// record. The profile state is loaded once at entry — a concurrent
// ReloadProfiles swaps the pointer without affecting this query, so the
// record's profile tag, pick and ranking all come from one store. The
// bound set the record was answered from is returned beside it, so a
// Compute request executes the pick without binding again.
func (e *Engine) answer(ctx context.Context, q Query, strat string, fused bool) (rec *Record, b *boundSet, err error) {
	defer func() {
		// A panic below — an armed failpoint or a bug — becomes this
		// query's error instead of taking a serving process down.
		if r := recover(); r != nil {
			rec, b, err = nil, nil, fmt.Errorf("engine: query %s%v failed: %v", q.Expr, q.Instance, r)
		}
	}()
	// Chaos hook: the suite arms "engine.query" to inject latency or
	// failures into the selection path of an unmodified binary.
	if err := faultinject.FireCtx(ctx, "engine.query"); err != nil {
		return nil, nil, err
	}
	st := e.prof.Load()
	run, err := e.resolveStrategy(strat, st)
	if err != nil {
		return nil, nil, err
	}
	x, err := expr.Lookup(q.Expr)
	if err != nil {
		return nil, nil, err
	}
	b, err = e.bound(x, q.Instance)
	if err != nil {
		return nil, nil, err
	}
	algs := b.algs
	// The evidence, built once: the set's prior under the loaded profile
	// state (memoised on the set), the feedback recorded near the
	// instance, and their blend, which only reads the prior. Every
	// strategy picks from it, and every record's ranking renders the
	// same posterior — the discriminant test, whatever strategy made the
	// pick.
	prior := b.predict(st)
	obs := e.outcomes.Near(x.Name(), q.Instance, selection.DefaultAdaptiveRadius)
	post := selection.Adaptive{Radius: selection.DefaultAdaptiveRadius}.Blend(prior, obs, algs)
	var pick int
	explored := false
	switch run.name {
	case "min-flops":
		pick = selection.MinFlops{}.Choose(algs)
	case "min-predicted":
		pick = selection.ArgMin(prior)
	case "adaptive":
		e.adaptiveQueries.Add(1)
		if len(obs) > 0 {
			e.adaptiveInformed.Add(1)
		}
		pick = selection.BestIndex(post)
		if n, ok := e.exploreTick(); ok {
			// Thompson sampling: one posterior draw per algorithm, take
			// the argmin. Seeded per exploration event so the sequence is
			// reproducible without any shared mutable RNG state.
			pick = selection.SampleBest(post, xrand.New(xrand.Hash64(exploreSeed, n)))
			e.explored.Add(1)
			explored = true
		}
	case "oracle":
		width := 0
		if fused {
			width = e.fuseWidth(b)
		}
		pick, err = e.chooseMeasured(ctx, algs, width)
		if err != nil {
			if ctx.Err() == nil {
				return nil, nil, err
			}
			// The deadline expired mid-measurement: a FLOPs-only answer
			// now beats a measured answer never.
			run = run.degrade(DegradedDeadline)
			pick = selection.MinFlops{}.Choose(algs)
		}
	}
	cands := make([]Candidate, len(algs))
	for i := range algs {
		cands[i] = Candidate{Index: algs[i].Index, Name: algs[i].Name, Flops: algs[i].Flops()}
	}
	ranking, confidence, anomaly := b.rank(post)
	if anomaly {
		e.anomalous.Add(1)
	}
	rec = &Record{
		Expr:          strings.ToLower(q.Expr),
		Instance:      q.Instance.Clone(),
		Strategy:      run.name,
		Backend:       e.timer.Exec.Name(),
		Selected:      cands[pick],
		NumAlgorithms: len(algs),
		Profile:       run.profileID,
		Candidates:    cands,
		Ranking:       ranking,
		Confidence:    confidence,
		Anomaly:       anomaly,
		Explore:       explored,
	}
	if run.degraded != "" {
		e.degraded.Add(1)
		rec.Requested = run.requested
		rec.Degraded = run.degraded
	}
	return rec, b, nil
}

// fuseWidth returns the common fused measurement width for the set: the
// smallest chunk width over its algorithms — one measurement repetition
// executes one chunk, the packed-sweep width whose working set fits the
// slab budget — so every candidate is measured under the same protocol.
// The widths come from the set's memoised layouts. 0 when the executor
// has no batched path or any algorithm is outside the fused regime —
// the caller then uses the ordinary per-instance measurement, and the
// reject is counted by reason in Stats.FuseRejected.
func (e *Engine) fuseWidth(b *boundSet) int {
	be, ok := e.timer.Exec.(exec.BatchExecutor)
	if !ok {
		e.rejUnregistered.Add(1)
		return 0
	}
	width := 0
	for i := range b.algs {
		w := layoutChunk(be, b.layout(i))
		if w < 2 {
			e.rejTooBig.Add(1)
			return 0
		}
		if width == 0 || w < width {
			width = w
		}
	}
	return width
}

// layoutChunk returns be's chunk width for a layout, 0 for none (an
// algorithm that does not validate never fuses).
func layoutChunk(be exec.BatchExecutor, lay *exec.Layout) int {
	if lay == nil {
		return 0
	}
	return be.LayoutChunk(lay)
}

// chooseMeasured is the oracle's pick: every algorithm is measured and
// the lowest per-instance median wins (first on ties). At width 2 or
// more each repetition executes width instances through one fused plan
// (amortising the cache flush and per-dispatch fixed costs); below 2
// each repetition runs one instance. Measurement is serialised on
// execMu, and the context is honoured between repetitions on both
// paths, so a deadline aborts within one repetition.
func (e *Engine) chooseMeasured(ctx context.Context, algs []expr.Algorithm, width int) (int, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	ms, err := e.timer.MeasureSet(ctx, algs, width)
	if err != nil {
		return -1, err
	}
	if width >= 2 {
		e.fused.Add(1)
	}
	totals := make([]float64, len(ms))
	for i := range ms {
		totals[i] = ms[i].Total
	}
	return selection.ArgMin(totals), nil
}

// Stats returns the per-layer cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{Bindings: e.bind.Stats()}
	e.mu.Unlock()
	s.Queries = e.queries.Load()
	s.Deduped = e.deduped.Load()
	s.Coalesced = e.coalesced.Load()
	s.FusedQueries = e.fused.Load()
	s.FuseRejected = FuseRejects{
		TooBigArena:      e.rejTooBig.Load(),
		Unregistered:     e.rejUnregistered.Load(),
		HeteroPrepadding: e.rejHetero.Load(),
	}
	s.Feedback = e.feedback.Load()
	s.FeedbackInstances = e.outcomes.Size()
	s.AdaptiveQueries = e.adaptiveQueries.Load()
	s.AdaptiveInformed = e.adaptiveInformed.Load()
	s.AnomalousQueries = e.anomalous.Load()
	s.ExploreQueries = e.explored.Load()
	s.DegradedQueries = e.degraded.Load()
	s.FeedbackRestored = e.restored.Load()
	s.MergeRequests = e.mergeReqs.Load()
	s.MergedOutcomes = e.mergedOut.Load()
	if st := e.prof.Load(); st != nil {
		s.Profile = st.info
	}
	s.Enumerations = ir.Enumerations()
	s.Backend = e.timer.Exec.Name()
	return s
}

// ExpressionInfo describes one queryable expression.
type ExpressionInfo struct {
	Name          string `json:"name"`
	Arity         int    `json:"arity"`
	NumAlgorithms int    `json:"num_algorithms"`
}

// ListExpressions returns the queryable expressions — the built-in
// registry — keyed by the name a Query would use, sorted.
func (e *Engine) ListExpressions() []ExpressionInfo {
	names := expr.Names()
	out := make([]ExpressionInfo, 0, len(names))
	for _, name := range names {
		x, err := expr.Lookup(name)
		if err != nil {
			continue
		}
		out = append(out, ExpressionInfo{Name: name, Arity: x.Arity(), NumAlgorithms: x.NumAlgorithms()})
	}
	return out
}

// cachedExpr is the engine-backed Expression view: Algorithms binds
// through the engine's caches and returns the shared cached set; every
// other method is the underlying expression's.
type cachedExpr struct {
	expr.Expression
	eng *Engine
}

// Algorithms implements expr.Expression through the binding cache. The
// returned set is shared: treat it as read-only.
func (c cachedExpr) Algorithms(inst expr.Instance) []expr.Algorithm {
	b, err := c.eng.bound(c.Expression, inst)
	if err != nil {
		panic(err)
	}
	return b.algs
}
