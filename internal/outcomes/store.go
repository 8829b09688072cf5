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
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"lamb/internal/expr"
	"lamb/internal/selection"
)

// Store is the concurrency-safe feedback store. Like the engine's cache
// layers it is bounded — maxPoints distinct (expression, instance)
// records, least-recently-touched evicted — so abusive or merely
// long-lived feedback traffic cannot grow it without limit.
//
// Two structures index the records. Per expression, records are
// bucketed into log-shape cells, so Near visits only the cells its
// radius can reach. Across expressions, one intrusive LRU list orders
// every record by its last touch, so eviction pops the list's back in
// O(1). Every touch happens in an order fixed by the request sequence,
// so the store's state — contents and eviction order alike — is a
// deterministic function of that sequence.
type Store struct {
	mu     sync.Mutex
	byExpr map[string]*exprRecords
	// lru is the sentinel of the circular list of every record: lru.next
	// is the most recently touched record, lru.prev the next victim.
	lru       record
	points    int // distinct (expression, instance) records
	maxPoints int
	// halfLife is the weight half-life in seconds; <= 0 disables decay.
	halfLife float64
	// now supplies wall time as unix seconds; tests inject a frozen
	// clock to pin decay arithmetic exactly.
	now func() float64
	// hits and streams are Near's scratch, reused under mu so a query
	// allocates only the slice it returns.
	hits    []hit
	streams []nearStream
}

// exprRecords holds one expression's records, keyed by instance and
// bucketed by log-shape cell.
type exprRecords struct {
	name   string
	byInst map[string]*record
	cells  map[uint64][]*record
	// unindexed counts the records no cell holds (see cellKey); while
	// any exist, Near scans the expression instead of visiting cells.
	unindexed int
}

// record is everything recorded at one (expression, instance) point.
type record struct {
	key    string        // inst.String(): the byInst key and snapshot sort key
	inst   expr.Instance // retained for snapshots
	coords []float64     // log-shape coordinates, precomputed (in pt up to maxIndexedArity)
	pt     [maxIndexedArity]float64
	algs   []stream
	ex     *exprRecords
	// cell is the record's cell key and slot its index in that cell's
	// slice (-1 when unindexed), so it leaves the cell by swap-remove.
	cell uint64
	slot int
	// prev and next link the store's LRU list.
	prev, next *record
}

// stream is one evidence stream at a record.
type stream struct {
	outcomeKey
	algOutcome
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

// find returns the record's stream for key, or nil.
func (rec *record) find(key outcomeKey) *stream {
	for i := range rec.algs {
		if rec.algs[i].outcomeKey == key {
			return &rec.algs[i]
		}
	}
	return nil
}

// NewStore returns a bounded store. halfLife <= 0 disables decay.
func NewStore(maxPoints int, halfLife time.Duration) *Store {
	st := &Store{
		byExpr:    make(map[string]*exprRecords),
		maxPoints: maxPoints,
		halfLife:  halfLife.Seconds(),
		now:       func() float64 { return float64(time.Now().UnixNano()) / 1e9 },
	}
	st.lru.prev, st.lru.next = &st.lru, &st.lru
	return st
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
// determine whether two instances behave alike. The coordinates go in
// buf when it is long enough.
func logCoords(buf []float64, inst expr.Instance) []float64 {
	out := buf[:0]
	for _, d := range inst {
		out = append(out, math.Log(float64(d)))
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

// The cell index. A cell is a cube of side cellSide in log-shape space:
// twice selection.DefaultAdaptiveRadius, so a default-radius query
// spans two cells per dimension (32 for the 5-dimensional chain), three
// only when its span ends within cellSlack of a cell edge. A cell key packs ⌊cᵢ/cellSide⌋ into one byte per dimension;
// ln of any int is below 44, so every index of a dimension ≥ 1 fits,
// for up to maxIndexedArity dimensions.
const (
	cellSide        = 2 * selection.DefaultAdaptiveRadius
	maxIndexedArity = 8
	// cellSlack widens a query's cell span, so rounding in a distance
	// computed near the radius can never hide a record on a cell edge.
	cellSlack = 1e-9
)

// cellKey returns the cell holding a point, or ok false for a point no
// cell holds: an arity above maxIndexedArity, or a dimension below 1
// (a coordinate that is negative or not finite).
func cellKey(coords []float64) (key uint64, ok bool) {
	if len(coords) > maxIndexedArity {
		return 0, false
	}
	for i, c := range coords {
		x := math.Floor(c / cellSide)
		if !(x >= 0 && x < 256) {
			return 0, false
		}
		key |= uint64(x) << (8 * i)
	}
	return key, true
}

// insert adds rec to the expression's instance map and its cell.
func (ex *exprRecords) insert(rec *record) {
	ex.byInst[rec.key] = rec
	cell, ok := cellKey(rec.coords)
	if !ok {
		rec.slot = -1
		ex.unindexed++
		return
	}
	rec.cell, rec.slot = cell, len(ex.cells[cell])
	ex.cells[cell] = append(ex.cells[cell], rec)
}

// delete removes rec from the expression's instance map and its cell,
// moving the cell's last record into rec's slot.
func (ex *exprRecords) delete(rec *record) {
	delete(ex.byInst, rec.key)
	if rec.slot < 0 {
		ex.unindexed--
		return
	}
	c := ex.cells[rec.cell]
	last := len(c) - 1
	moved := c[last]
	c[rec.slot], moved.slot = moved, rec.slot
	c[last] = nil
	if last == 0 {
		delete(ex.cells, rec.cell)
	} else {
		ex.cells[rec.cell] = c[:last]
	}
}

// cellSpan sets lo and hi to the per-dimension cell indices a ball of
// radius around coords can reach, and reports whether visiting those
// cells answers the query. It reports false — scan the expression
// instead — for an arity above maxIndexedArity, a coordinate or radius
// that is not a finite non-negative number, an expression holding
// unindexed records, or a span of more cells than the expression has
// records.
func (ex *exprRecords) cellSpan(coords []float64, radius float64, lo, hi *[maxIndexedArity]int) bool {
	if len(coords) > maxIndexedArity || !(radius >= 0) || math.IsInf(radius, 1) || ex.unindexed > 0 {
		return false
	}
	cells := 1
	for i, c := range coords {
		if !(c >= 0) || math.IsInf(c, 1) {
			return false
		}
		l := max(math.Floor((c-radius-cellSlack)/cellSide), 0)
		h := min(math.Floor((c+radius+cellSlack)/cellSide), 255)
		if cells *= int(h-l) + 1; cells > len(ex.byInst) {
			return false
		}
		lo[i], hi[i] = int(l), int(h)
	}
	return true
}

// near appends to hits every record of the expression within radius of
// coords, visiting only the cells the radius reaches when cellSpan
// allows and scanning every record otherwise. Both find the same
// records; their order is the caller's to fix.
func (ex *exprRecords) near(hits []hit, coords []float64, radius float64) []hit {
	var lo, hi [maxIndexedArity]int
	if !ex.cellSpan(coords, radius, &lo, &hi) {
		for _, rec := range ex.byInst {
			hits = appendHit(hits, rec, coords, radius)
		}
		return hits
	}
	idx := lo
	for {
		var key uint64
		for i := range coords {
			key |= uint64(idx[i]) << (8 * i)
		}
		for _, rec := range ex.cells[key] {
			hits = appendHit(hits, rec, coords, radius)
		}
		// Advance the per-dimension odometer; done once every digit wraps.
		i := 0
		for ; i < len(coords) && idx[i] == hi[i]; i++ {
			idx[i] = lo[i]
		}
		if i == len(coords) {
			return hits
		}
		idx[i]++
	}
}

// hit is one record Near matched, at its distance from the query.
type hit struct {
	rec *record
	d   float64
}

func appendHit(hits []hit, rec *record, coords []float64, radius float64) []hit {
	d := logDistance(coords, rec.coords)
	if d > radius {
		return hits
	}
	return append(hits, hit{rec: rec, d: d})
}

// The LRU list. Callers hold the lock.

func (st *Store) pushFront(rec *record) {
	rec.prev, rec.next = &st.lru, st.lru.next
	st.lru.next.prev = rec
	st.lru.next = rec
}

func unlink(rec *record) {
	rec.prev.next, rec.next.prev = rec.next, rec.prev
	rec.prev, rec.next = nil, nil
}

func (st *Store) moveToFront(rec *record) {
	if st.lru.next != rec {
		unlink(rec)
		st.pushFront(rec)
	}
}

// remove deletes rec from the store, and its expression once empty.
func (st *Store) remove(rec *record) {
	unlink(rec)
	rec.ex.delete(rec)
	if len(rec.ex.byInst) == 0 {
		delete(st.byExpr, rec.ex.name)
	}
	st.points--
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
	rec := st.touch(exprName, inst)
	now := st.now()
	s := rec.find(outcomeKey{alg: alg})
	if s == nil {
		rec.algs = append(rec.algs, stream{outcomeKey: outcomeKey{alg: alg}, algOutcome: algOutcome{last: now}})
		s = &rec.algs[len(rec.algs)-1]
	}
	s.decayTo(now, st.halfLife)
	// Weighted Welford update with a unit-mass increment: the mean
	// matches the plain running mean exactly, and m2 accumulates the
	// weighted squared deviations that back the posterior's variance.
	s.count++
	s.weight++
	delta := seconds - s.mean
	s.mean += delta / s.weight
	s.m2 += delta * (seconds - s.mean)
	return nil
}

// touch returns the record for (exprName, inst), creating (and if
// necessary evicting) under the held lock, and moves it to the front
// of the LRU list.
func (st *Store) touch(exprName string, inst expr.Instance) *record {
	key := inst.String()
	ex := st.byExpr[exprName]
	if ex != nil {
		if rec := ex.byInst[key]; rec != nil {
			st.moveToFront(rec)
			return rec
		}
	}
	if st.points >= st.maxPoints && st.lru.prev != &st.lru {
		// Eviction may remove this expression's last record and with it
		// the expression itself — re-fetch so the insert below never
		// lands in an orphaned index.
		st.remove(st.lru.prev)
		ex = st.byExpr[exprName]
	}
	if ex == nil {
		ex = &exprRecords{name: exprName, byInst: make(map[string]*record), cells: make(map[uint64][]*record)}
		st.byExpr[exprName] = ex
	}
	rec := &record{key: key, inst: inst.Clone(), ex: ex}
	rec.coords = logCoords(rec.pt[:], inst)
	ex.insert(rec)
	st.pushFront(rec)
	st.points++
	return rec
}

// nearStream is one evidence stream Near serves, at its record's
// distance from the query.
type nearStream struct {
	s   *stream
	rec *record
	d   float64
}

// Near returns the aggregated observations recorded within radius of
// inst in log-shape space — the adaptive strategy's evidence, with
// decayed weights. Serving a record counts as a touch: evidence that is
// actively informing queries must not be evicted in favour of stale,
// never-queried records, so Near moves its matches to the front of the
// LRU list, leaving them in (distance, instance) order with the nearest
// first. Reads therefore mutate the store, which is why it uses a plain
// mutex.
func (st *Store) Near(exprName string, inst expr.Instance, radius float64) []selection.Observation {
	var buf [maxIndexedArity]float64
	coords := logCoords(buf[:], inst)
	st.mu.Lock()
	defer st.mu.Unlock()
	ex := st.byExpr[exprName]
	if ex == nil {
		return nil
	}
	hits := ex.near(st.hits[:0], coords, radius)
	// The index and the map visit records in no fixed order; sorting
	// before the touches makes the LRU order a function of the request
	// sequence.
	slices.SortFunc(hits, func(a, b hit) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return strings.Compare(a.rec.key, b.rec.key)
	})
	for i := len(hits) - 1; i >= 0; i-- {
		st.moveToFront(hits[i].rec)
	}
	now := st.now()
	streams := st.streams[:0]
	for _, h := range hits {
		// One observation per (algorithm, source) stream: the adaptive
		// blend sums weights per algorithm, so local and merged evidence
		// combine without the store pre-aggregating them.
		for i := range h.rec.algs {
			s := &h.rec.algs[i]
			s.decayTo(now, st.halfLife)
			streams = append(streams, nearStream{s: s, rec: h.rec, d: h.d})
		}
	}
	// The posterior accumulates these in floating point, so identical
	// store states must serve identically ordered evidence or repeated
	// queries would drift in the last bits. The instance key breaks the
	// last ties.
	slices.SortFunc(streams, func(a, b nearStream) int {
		if a.s.alg != b.s.alg {
			return cmp.Compare(a.s.alg, b.s.alg)
		}
		if a.s.source != b.s.source {
			return strings.Compare(a.s.source, b.s.source)
		}
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		if c := cmp.Compare(a.s.mean, b.s.mean); c != 0 {
			return c
		}
		return strings.Compare(a.rec.key, b.rec.key)
	})
	var out []selection.Observation
	if len(streams) > 0 {
		out = make([]selection.Observation, len(streams))
		for i, n := range streams {
			out[i] = selection.Observation{
				Algorithm: n.s.alg,
				Seconds:   n.s.mean,
				Count:     n.s.count,
				Weight:    n.s.weight,
				Distance:  n.d,
				M2:        n.s.m2,
			}
		}
	}
	// Clear the scratch so it never keeps an evicted record alive.
	clear(hits)
	clear(streams)
	st.hits, st.streams = hits[:0], streams[:0]
	return out
}

// Size returns the number of distinct recorded (expression, instance)
// points.
func (st *Store) Size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.points
}
