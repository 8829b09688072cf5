// Package outcomes is the engine's feedback memory: measured outcomes
// recorded per (expression, instance), searched by log-shape distance,
// decayed over time, and snapshotted to disk so accumulated learning
// survives process restarts (the durability half of the online decision
// process of arXiv:2209.03258 — feedback only compounds if it outlives
// the process that collected it).
//
// The store is concurrency-safe and bounded (least-recently-touched
// records evicted at capacity). Each recorded algorithm outcome carries
// an exponentially decayed weight: with a configured half-life, a
// measurement's influence halves every half-life of wall time, so
// pre-restart (or merely stale) measurements cannot dominate fresh
// evidence forever.
package outcomes

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"lamb/internal/expr"
	"lamb/internal/selection"
)

// Store is the concurrency-safe feedback store. Like the engine's cache
// layers it is bounded — maxPoints distinct (expression, instance)
// records, least-recently-touched evicted — so abusive or merely
// long-lived feedback traffic cannot grow it without limit. The bound
// also caps Near's linear scan.
type Store struct {
	mu        sync.Mutex
	byExpr    map[string]map[string]*record
	points    int // distinct (expression, instance) records
	maxPoints int
	seq       uint64
	// halfLife is the weight half-life in seconds; <= 0 disables decay.
	halfLife float64
	// now supplies wall time as unix seconds; tests inject a frozen
	// clock to pin decay arithmetic exactly.
	now func() float64
}

// record is everything recorded at one (expression, instance) point.
type record struct {
	inst   expr.Instance // retained for snapshots
	coords []float64     // log-shape coordinates, precomputed
	algs   map[outcomeKey]*algOutcome
	// seq is the store's counter value at the last touch — feedback
	// recorded or evidence served to an adaptive query — the eviction
	// order once the store is full.
	seq uint64
}

// outcomeKey identifies one evidence stream at a record: an algorithm
// index and the source the evidence arrived from. The empty source is
// this process's own feedback; non-empty sources tag evidence merged
// from peers (Merge), kept separate so a later merge from the same peer
// replaces — never double-counts — what that peer contributed before.
type outcomeKey struct {
	alg    int
	source string
}

// algOutcome aggregates the measurements reported for one algorithm at
// one instance: a decayed-weight running mean and Welford spread plus
// the raw count.
type algOutcome struct {
	count  int     // raw measurements ever recorded (never decayed)
	weight float64 // decayed pseudo-count
	mean   float64 // weighted mean of reported seconds
	m2     float64 // weighted sum of squared deviations (Welford)
	last   float64 // unix seconds the weight was last decayed to
}

// decayTo folds wall time into the weight: halving per halfLife seconds
// since the last touch. m2 decays by the same factor, so the stream's
// variance (m2/weight) is invariant under decay — old evidence loses
// mass, not spread.
func (a *algOutcome) decayTo(now, halfLife float64) {
	if halfLife <= 0 || now <= a.last {
		return
	}
	f := math.Exp2(-(now - a.last) / halfLife)
	a.weight *= f
	a.m2 *= f
	a.last = now
}

// NewStore returns a bounded store. halfLife <= 0 disables decay.
func NewStore(maxPoints int, halfLife time.Duration) *Store {
	return &Store{
		byExpr:    make(map[string]map[string]*record),
		maxPoints: maxPoints,
		halfLife:  halfLife.Seconds(),
		now:       func() float64 { return float64(time.Now().UnixNano()) / 1e9 },
	}
}

// SetClock replaces the store's wall-time source (unix seconds) for
// tests that pin decay arithmetic.
func (st *Store) SetClock(now func() float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.now = now
}

// logCoords maps an instance into log-shape space, where the adaptive
// neighbourhood is defined: ratios of sizes, not absolute differences,
// determine whether two instances behave alike.
func logCoords(inst expr.Instance) []float64 {
	out := make([]float64, len(inst))
	for i, d := range inst {
		out[i] = math.Log(float64(d))
	}
	return out
}

// logDistance is the Euclidean distance between two log-shape points.
// Instances of different arity are infinitely far apart.
func logDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Add records one measurement, evicting the least-recently-touched
// record when the store is at capacity. Direct feedback is always
// local evidence (the empty source). A time that is not a positive,
// finite duration is rejected: one NaN or infinity would poison the
// stream's mean and every posterior built from it.
func (st *Store) Add(exprName string, inst expr.Instance, alg int, seconds float64) error {
	if !(seconds > 0) || math.IsInf(seconds, 1) {
		return fmt.Errorf("outcomes: seconds %v is not a positive duration", seconds)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	o := st.touch(exprName, inst)
	key := outcomeKey{alg: alg}
	ao := o.algs[key]
	if ao == nil {
		ao = &algOutcome{last: st.now()}
		o.algs[key] = ao
	}
	ao.decayTo(st.now(), st.halfLife)
	// Weighted Welford update with a unit-mass increment: the mean
	// matches the plain running mean exactly, and m2 accumulates the
	// weighted squared deviations that back the posterior's variance.
	ao.count++
	ao.weight++
	delta := seconds - ao.mean
	ao.mean += delta / ao.weight
	ao.m2 += delta * (seconds - ao.mean)
	return nil
}

// restore installs one snapshot outcome verbatim (weight, mean, count,
// source, and decay timestamp), merging into any existing record.
func (st *Store) restore(exprName string, inst expr.Instance, o SnapshotOutcome, last float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.install(exprName, inst, o, o.Source, 1, last)
}

// install writes one outcome under (alg, source) with the weight scaled,
// creating the record as needed. Callers hold the write lock.
func (st *Store) install(exprName string, inst expr.Instance, o SnapshotOutcome, source string, scale, last float64) {
	rec := st.touch(exprName, inst)
	rec.algs[outcomeKey{alg: o.Algorithm, source: source}] = &algOutcome{
		count:  o.Count,
		weight: o.Weight * scale,
		mean:   o.Mean,
		// m2 scales with the weight so the stream's variance survives the
		// scaling unchanged. Version-1 snapshots carry no m2 (zero), which
		// downstream reads as "no tracked spread; the prior's stands in".
		m2:   o.M2 * scale,
		last: last,
	}
}

// touch returns the record for (exprName, inst), creating (and if
// necessary evicting) under the held lock, and refreshes its eviction
// sequence.
func (st *Store) touch(exprName string, inst expr.Instance) *record {
	key := inst.String()
	insts := st.byExpr[exprName]
	if insts == nil {
		insts = make(map[string]*record)
		st.byExpr[exprName] = insts
	}
	o := insts[key]
	if o == nil {
		if st.points >= st.maxPoints {
			// Eviction may remove this expression's last record and with
			// it the per-expression map itself — re-fetch so the insert
			// below never lands in an orphaned map.
			st.evictOldest()
			if insts = st.byExpr[exprName]; insts == nil {
				insts = make(map[string]*record)
				st.byExpr[exprName] = insts
			}
		}
		o = &record{inst: inst.Clone(), coords: logCoords(inst), algs: make(map[outcomeKey]*algOutcome)}
		insts[key] = o
		st.points++
	}
	st.seq++
	o.seq = st.seq
	return o
}

// evictOldest drops the record with the smallest touch sequence. A
// linear scan is fine: it runs only when the store is full, over at
// most maxPoints records. Callers hold the write lock.
func (st *Store) evictOldest() {
	var (
		oldExpr, oldKey string
		oldSeq          uint64
		found           bool
	)
	for exprName, insts := range st.byExpr {
		for key, o := range insts {
			if !found || o.seq < oldSeq {
				oldExpr, oldKey, oldSeq, found = exprName, key, o.seq, true
			}
		}
	}
	if found {
		delete(st.byExpr[oldExpr], oldKey)
		if len(st.byExpr[oldExpr]) == 0 {
			delete(st.byExpr, oldExpr)
		}
		st.points--
	}
}

// Near returns the aggregated observations recorded within radius of
// inst in log-shape space — the adaptive strategy's evidence, with
// decayed weights. Serving a record counts as a touch: evidence that is
// actively informing queries must not be evicted in favour of stale,
// never-queried records, so matches have their eviction seq refreshed —
// reads mutate, which is why the store uses a plain mutex.
func (st *Store) Near(exprName string, inst expr.Instance, radius float64) []selection.Observation {
	coords := logCoords(inst)
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	type stream struct {
		src string
		o   selection.Observation
	}
	var matches []stream
	for _, o := range st.byExpr[exprName] {
		d := logDistance(coords, o.coords)
		if d > radius {
			continue
		}
		st.seq++
		o.seq = st.seq
		// One observation per (algorithm, source) stream: the adaptive
		// blend sums weights per algorithm, so local and merged evidence
		// combine without the store pre-aggregating them.
		for key, ao := range o.algs {
			ao.decayTo(now, st.halfLife)
			matches = append(matches, stream{src: key.source, o: selection.Observation{
				Algorithm: key.alg,
				Seconds:   ao.mean,
				Count:     ao.count,
				Weight:    ao.weight,
				Distance:  d,
				M2:        ao.m2,
			}})
		}
	}
	// Map iteration order is random; the posterior accumulates these in
	// floating point, so identical store states must serve identically
	// ordered evidence or repeated queries would drift in the last bits.
	sort.Slice(matches, func(i, j int) bool {
		a, b := matches[i], matches[j]
		if a.o.Algorithm != b.o.Algorithm {
			return a.o.Algorithm < b.o.Algorithm
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.o.Distance != b.o.Distance {
			return a.o.Distance < b.o.Distance
		}
		return a.o.Seconds < b.o.Seconds
	})
	if len(matches) == 0 {
		return nil
	}
	out := make([]selection.Observation, len(matches))
	for i, m := range matches {
		out[i] = m.o
	}
	return out
}

// Size returns the number of distinct recorded (expression, instance)
// points.
func (st *Store) Size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.points
}
