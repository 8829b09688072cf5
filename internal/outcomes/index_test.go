package outcomes

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lamb/internal/expr"
	"lamb/internal/selection"
	"lamb/internal/xrand"
)

// refStore is the brute-force model the indexed store must match: a
// flat list of records, a linear scan per Near, and eviction of the
// record with the oldest touch stamp.
type refStore struct {
	recs     []*refRecord
	stamp    uint64
	max      int
	halfLife float64
	now      *float64
}

type refRecord struct {
	expr, key string
	coords    []float64
	algs      []stream
	stamp     uint64
}

func (rs *refStore) touch(exprName string, inst expr.Instance) *refRecord {
	key := inst.String()
	rs.stamp++
	for _, r := range rs.recs {
		if r.expr == exprName && r.key == key {
			r.stamp = rs.stamp
			return r
		}
	}
	if len(rs.recs) >= rs.max && len(rs.recs) > 0 {
		oldest := 0
		for i, r := range rs.recs {
			if r.stamp < rs.recs[oldest].stamp {
				oldest = i
			}
		}
		rs.recs = slices.Delete(rs.recs, oldest, oldest+1)
	}
	r := &refRecord{expr: exprName, key: key, coords: logCoords(nil, inst), stamp: rs.stamp}
	rs.recs = append(rs.recs, r)
	return r
}

func (r *refRecord) find(key outcomeKey) *stream {
	for i := range r.algs {
		if r.algs[i].outcomeKey == key {
			return &r.algs[i]
		}
	}
	return nil
}

func (rs *refStore) add(exprName string, inst expr.Instance, alg int, seconds float64) {
	r := rs.touch(exprName, inst)
	s := r.find(outcomeKey{alg: alg})
	if s == nil {
		r.algs = append(r.algs, stream{outcomeKey: outcomeKey{alg: alg}, algOutcome: algOutcome{last: *rs.now}})
		s = &r.algs[len(r.algs)-1]
	}
	s.decayTo(*rs.now, rs.halfLife)
	s.count++
	s.weight++
	delta := seconds - s.mean
	s.mean += delta / s.weight
	s.m2 += delta * (seconds - s.mean)
}

func (rs *refStore) merge(source string, snap *Snapshot, scale float64) {
	kept := rs.recs[:0]
	for _, r := range rs.recs {
		r.algs = slices.DeleteFunc(r.algs, func(s stream) bool { return s.source == source })
		if len(r.algs) > 0 {
			kept = append(kept, r)
		}
	}
	rs.recs = kept
	for _, rec := range snap.Records {
		for _, o := range rec.Outcomes {
			if o.Source != "" {
				continue
			}
			r := rs.touch(rec.Expr, rec.Instance)
			key := outcomeKey{alg: o.Algorithm, source: source}
			ao := algOutcome{count: o.Count, weight: o.Weight * scale, mean: o.Mean, m2: o.M2 * scale, last: snap.CreatedUnix}
			if s := r.find(key); s != nil {
				s.algOutcome = ao
			} else {
				r.algs = append(r.algs, stream{outcomeKey: key, algOutcome: ao})
			}
		}
	}
}

// near scans every record, touches the matches farthest first (so the
// nearest ends most recent) and orders the streams as Near documents.
func (rs *refStore) near(exprName string, inst expr.Instance, radius float64) []selection.Observation {
	coords := logCoords(nil, inst)
	type match struct {
		r *refRecord
		d float64
	}
	var ms []match
	for _, r := range rs.recs {
		if d := logDistance(coords, r.coords); r.expr == exprName && !(d > radius) {
			ms = append(ms, match{r, d})
		}
	}
	slices.SortStableFunc(ms, func(a, b match) int {
		return cmp.Or(cmp.Compare(a.d, b.d), strings.Compare(a.r.key, b.r.key))
	})
	for i := len(ms) - 1; i >= 0; i-- {
		rs.stamp++
		ms[i].r.stamp = rs.stamp
	}
	type served struct {
		key, src string
		o        selection.Observation
	}
	var out []served
	for _, m := range ms {
		for i := range m.r.algs {
			s := &m.r.algs[i]
			s.decayTo(*rs.now, rs.halfLife)
			out = append(out, served{key: m.r.key, src: s.source, o: selection.Observation{
				Algorithm: s.alg, Seconds: s.mean, Count: s.count, Weight: s.weight, Distance: m.d, M2: s.m2,
			}})
		}
	}
	slices.SortStableFunc(out, func(a, b served) int {
		return cmp.Or(cmp.Compare(a.o.Algorithm, b.o.Algorithm), strings.Compare(a.src, b.src),
			cmp.Compare(a.o.Distance, b.o.Distance), cmp.Compare(a.o.Seconds, b.o.Seconds),
			strings.Compare(a.key, b.key))
	})
	var obs []selection.Observation
	for _, s := range out {
		obs = append(obs, s.o)
	}
	return obs
}

// lruOrder lists the model's records most recently touched first.
func (rs *refStore) lruOrder() []string {
	recs := slices.Clone(rs.recs)
	slices.SortFunc(recs, func(a, b *refRecord) int { return cmp.Compare(b.stamp, a.stamp) })
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.expr + r.key
	}
	return out
}

// lruOrder lists the store's records most recently touched first.
func lruOrder(st *Store) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	for rec := st.lru.next; rec != &st.lru; rec = rec.next {
		out = append(out, rec.ex.name+rec.key)
	}
	return out
}

// checkIndex verifies the store's structures agree: every record sits
// in its expression's map, in its cell at its slot (or is counted
// unindexed), and on the LRU list exactly once.
func checkIndex(t *testing.T, st *Store) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	listed := 0
	for rec := st.lru.next; rec != &st.lru; rec = rec.next {
		if rec.next.prev != rec {
			t.Fatalf("LRU list broken at %s%s", rec.ex.name, rec.key)
		}
		if st.byExpr[rec.ex.name] != rec.ex || rec.ex.byInst[rec.key] != rec {
			t.Fatalf("listed record %s%s is not indexed", rec.ex.name, rec.key)
		}
		listed++
	}
	total := 0
	for name, ex := range st.byExpr {
		if len(ex.byInst) == 0 {
			t.Fatalf("expression %s kept with no records", name)
		}
		total += len(ex.byInst)
		unindexed, celled := 0, 0
		for _, rec := range ex.byInst {
			if rec.slot < 0 {
				unindexed++
			} else if c := ex.cells[rec.cell]; rec.slot >= len(c) || c[rec.slot] != rec {
				t.Fatalf("record %s%s is not at its cell slot", name, rec.key)
			}
		}
		for _, c := range ex.cells {
			if len(c) == 0 {
				t.Fatalf("expression %s keeps an empty cell", name)
			}
			celled += len(c)
		}
		if unindexed != ex.unindexed || celled+unindexed != len(ex.byInst) {
			t.Fatalf("expression %s: %d celled + %d unindexed (counted %d) for %d records",
				name, celled, unindexed, ex.unindexed, len(ex.byInst))
		}
	}
	if listed != st.points || total != st.points || st.points > max(st.maxPoints, 1) {
		t.Fatalf("%d listed, %d indexed, %d counted, bound %d", listed, total, st.points, st.maxPoints)
	}
}

// sameObservations compares two answers bit for bit.
func sameObservations(a, b []selection.Observation) bool {
	bits := math.Float64bits
	return slices.EqualFunc(a, b, func(x, y selection.Observation) bool {
		return x.Algorithm == y.Algorithm && x.Count == y.Count && bits(x.Seconds) == bits(y.Seconds) &&
			bits(x.Weight) == bits(y.Weight) && bits(x.Distance) == bits(y.Distance) && bits(x.M2) == bits(y.M2)
	})
}

// indexedOps drives a random Add/Near/Merge sequence over expressions of
// arity 1 through 9 (9 is above the cell key's reach), one of mixed
// arity, and one holding instances with a dimension below 1, around a
// few centres so queries find neighbours.
type indexedOps struct {
	rng     *xrand.Rand
	names   []string
	arity   map[string]int
	centres map[string][]expr.Instance
	drawn   map[string][]expr.Instance // recent instance draws, for edge queries
}

var testRadii = []float64{0, 0.1, selection.DefaultAdaptiveRadius, 3 * selection.DefaultAdaptiveRadius, 50, math.Inf(1), math.NaN()}

func newIndexedOps(seed uint64) *indexedOps {
	g := &indexedOps{rng: xrand.New(seed), arity: map[string]int{}, centres: map[string][]expr.Instance{}, drawn: map[string][]expr.Instance{}}
	for a := 1; a <= 9; a++ {
		name := fmt.Sprintf("e%d", a)
		g.names = append(g.names, name)
		g.arity[name] = a
	}
	g.names = append(g.names, "mixed", "zero")
	g.arity["zero"] = 3
	for _, name := range g.names {
		for range 4 {
			g.centres[name] = append(g.centres[name], g.fresh(name))
		}
	}
	return g
}

func (g *indexedOps) fresh(name string) expr.Instance {
	a := g.arity[name]
	if a == 0 {
		a = 2 + g.rng.Intn(3)
	}
	inst := make(expr.Instance, a)
	for i := range inst {
		inst[i] = 1 + int(math.Exp(8*g.rng.Float64()))
	}
	return inst
}

// instance draws a point near one of the expression's centres.
func (g *indexedOps) instance(name string) expr.Instance {
	c := g.centres[name][g.rng.Intn(len(g.centres[name]))]
	if name == "mixed" && g.rng.Intn(2) == 0 {
		c = g.fresh(name)
	}
	inst := make(expr.Instance, len(c))
	for i, d := range c {
		inst[i] = max(1, int(math.Round(float64(d)*math.Exp(0.3*g.rng.NormFloat64()))))
	}
	if name == "zero" && g.rng.Intn(4) == 0 {
		inst[g.rng.Intn(len(inst))] = -g.rng.Intn(2) // 0 or -1: no log-shape cell
	}
	if len(g.drawn[name]) < 256 {
		g.drawn[name] = append(g.drawn[name], inst)
	} else {
		g.drawn[name][g.rng.Intn(256)] = inst
	}
	return inst
}

// query draws a Near query: half near a centre, half an earlier point
// moved along one dimension by just under the radius, so matches sit
// close to the edge of the query's cell span.
func (g *indexedOps) query(name string, radius float64) expr.Instance {
	if g.rng.Intn(2) == 0 || len(g.drawn[name]) == 0 {
		return g.instance(name)
	}
	inst := slices.Clone(g.drawn[name][g.rng.Intn(len(g.drawn[name]))])
	step := selection.DefaultAdaptiveRadius
	if radius > 0 && radius < 1 {
		step = radius
	}
	step *= 0.8 + 0.2*g.rng.Float64()
	if g.rng.Intn(2) == 0 {
		step = -step
	}
	i := g.rng.Intn(len(inst))
	inst[i] = max(1, int(float64(inst[i])*math.Exp(step)))
	return inst
}

func (g *indexedOps) snapshot(now float64) *Snapshot {
	snap := &Snapshot{SchemaVersion: SchemaVersion, CreatedUnix: now}
	for range 1 + g.rng.Intn(6) {
		name := g.names[g.rng.Intn(len(g.names))]
		rec := SnapshotRecord{Expr: name, Instance: g.instance(name)}
		for alg := 1; alg <= 1+g.rng.Intn(3); alg++ {
			o := SnapshotOutcome{Algorithm: alg, Count: 2, Weight: 1 + g.rng.Float64(), Mean: g.rng.Float64(), M2: g.rng.Float64() * 1e-3}
			if g.rng.Intn(5) == 0 {
				o.Source = "third-party" // Merge skips evidence a peer merged itself
			}
			rec.Outcomes = append(rec.Outcomes, o)
		}
		snap.Records = append(snap.Records, rec)
	}
	return snap
}

// TestNearMatchesLinearScan drives the indexed store and the brute-force
// model through one random sequence with eviction at capacity, and
// requires bit-equal answers at every radius and the same LRU order
// (hence the same eviction victims) throughout.
func TestNearMatchesLinearScan(t *testing.T) {
	const capacity, steps = 600, 6000
	st, now := frozenStore(capacity, time.Hour)
	ref := &refStore{max: capacity, halfLife: 3600, now: now}
	g := newIndexedOps(1)
	sources := []string{"peer-a", "peer-b"}
	indexed, scanned := 0, 0
	for step := range steps {
		name := g.names[g.rng.Intn(len(g.names))]
		switch op := g.rng.Intn(10); {
		case op < 5:
			inst, alg, sec := g.instance(name), 1+g.rng.Intn(4), 1e-3*(1+g.rng.Float64())
			if err := st.Add(name, inst, alg, sec); err != nil {
				t.Fatal(err)
			}
			ref.add(name, inst, alg, sec)
		case op < 9:
			radius := testRadii[g.rng.Intn(len(testRadii))]
			inst := g.query(name, radius)
			st.mu.Lock()
			if ex := st.byExpr[name]; ex != nil {
				var lo, hi [maxIndexedArity]int
				if ex.cellSpan(logCoords(nil, inst), radius, &lo, &hi) {
					indexed++
				} else {
					scanned++
				}
			}
			st.mu.Unlock()
			got, want := st.Near(name, inst, radius), ref.near(name, inst, radius)
			if !sameObservations(got, want) {
				t.Fatalf("step %d: Near(%s, %v, %v)\n got %+v\nwant %+v", step, name, inst, radius, got, want)
			}
		default:
			src, snap := sources[g.rng.Intn(len(sources))], g.snapshot(*now)
			st.Merge(src, snap, 0.5, nil)
			ref.merge(src, snap, 0.5)
		}
		if g.rng.Intn(20) == 0 {
			*now += 600 * g.rng.Float64()
		}
		if step%50 == 0 || step == steps-1 {
			checkIndex(t, st)
			if got, want := lruOrder(st), ref.lruOrder(); !slices.Equal(got, want) {
				t.Fatalf("step %d: LRU order diverged from the model (%d vs %d records)", step, len(got), len(want))
			}
		}
	}
	if st.Size() != capacity {
		t.Fatalf("store holds %d records, want it full at %d", st.Size(), capacity)
	}
	if indexed < steps/10 || scanned < steps/10 {
		t.Fatalf("the sequence visited cells %d times and scanned %d times; both paths need coverage", indexed, scanned)
	}
}

// TestNearFindsMatchesAcrossCellEdges puts a record on one side of a
// cell edge and queries from the other, a millionth of the radius
// inside it, in every dimension of arities 1 through 8: the cell span
// must reach across the edge in both directions.
func TestNearFindsMatchesAcrossCellEdges(t *testing.T) {
	const edge = 40 * cellSide // e^20 ≈ 4.85e8: integer dimensions resolve the log to ~2e-9
	indexed := 0
	for arity := 1; arity <= maxIndexedArity; arity++ {
		for _, radius := range []float64{0.1, selection.DefaultAdaptiveRadius, 0.75} {
			for dim := range arity {
				for _, above := range []bool{true, false} {
					st, _ := frozenStore(512, 0)
					// Far-away filler, enough that most spans beat a scan.
					for i := range 300 {
						filler := make(expr.Instance, arity)
						for j := range filler {
							filler[j] = 2
						}
						filler[0] = 2 + i
						st.Add("X", filler, 1, 1)
					}
					rec, q := make(expr.Instance, arity), make(expr.Instance, arity)
					for j := range rec {
						rec[j], q[j] = 854, 854
					}
					step := math.Exp(radius * (1 - 1e-6))
					if above {
						rec[dim] = int(math.Ceil(math.Exp(edge)))
						q[dim] = int(math.Ceil(float64(rec[dim]) / step))
					} else {
						rec[dim] = int(math.Floor(math.Exp(edge)))
						q[dim] = int(math.Floor(float64(rec[dim]) * step))
					}
					st.Add("X", rec, 7, 1)
					var lo, hi [maxIndexedArity]int
					if st.byExpr["X"].cellSpan(logCoords(nil, q), radius, &lo, &hi) {
						indexed++
					}
					obs := st.Near("X", q, radius)
					if len(obs) != 1 || obs[0].Algorithm != 7 || obs[0].Distance > radius {
						t.Fatalf("arity %d, radius %v, dimension %d, record above the edge %v: Near(%v) = %+v, want the record at %v",
							arity, radius, dim, above, []int(q), obs, []int(rec))
					}
				}
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no query took the cell path")
	}
}

// TestStoreEvictsLeastRecentlyTouched pins exact LRU eviction: Add,
// Merge and Near all count as touches, and the victim is always the
// record touched longest ago.
func TestStoreEvictsLeastRecentlyTouched(t *testing.T) {
	st, _ := frozenStore(3, 0)
	a, b, c := expr.Instance{100, 100}, expr.Instance{400, 400}, expr.Instance{1600, 1600}
	for _, inst := range []expr.Instance{a, b, c} {
		st.Add("X", inst, 1, 1)
	}
	// Only a read touches a: b is now the oldest.
	if obs := st.Near("X", a, 0.01); len(obs) != 1 {
		t.Fatalf("Near(a) = %+v", obs)
	}
	st.Add("X", expr.Instance{50, 50}, 1, 1)
	if got, want := lruOrder(st), []string{"X(50,50)", "X(100,100)", "X(1600,1600)"}; !slices.Equal(got, want) {
		t.Fatalf("after evicting: %v, want %v", got, want)
	}
	// A merge touches c; the next eviction takes a.
	snap := &Snapshot{SchemaVersion: SchemaVersion, Records: []SnapshotRecord{
		{Expr: "X", Instance: c, Outcomes: []SnapshotOutcome{{Algorithm: 2, Count: 1, Weight: 1, Mean: 1}}},
	}}
	st.Merge("peer", snap, 1, nil)
	st.Add("X", expr.Instance{25, 25}, 1, 1)
	if got, want := lruOrder(st), []string{"X(25,25)", "X(1600,1600)", "X(50,50)"}; !slices.Equal(got, want) {
		t.Fatalf("after the second eviction: %v, want %v", got, want)
	}
	checkIndex(t, st)
}

// TestNearTouchesNearestLast pins the touch order of one Near: every
// match moves to the front, nearest first, so of two matches the
// farther one is evicted first.
func TestNearTouchesNearestLast(t *testing.T) {
	st, _ := frozenStore(3, 0)
	near, far := expr.Instance{100, 110}, expr.Instance{100, 120}
	st.Add("X", near, 1, 1)
	st.Add("X", far, 1, 1)
	st.Add("X", expr.Instance{900, 900}, 1, 1)
	if obs := st.Near("X", expr.Instance{100, 100}, selection.DefaultAdaptiveRadius); len(obs) != 2 {
		t.Fatalf("Near = %+v", obs)
	}
	if got, want := lruOrder(st), []string{"X(100,110)", "X(100,120)", "X(900,900)"}; !slices.Equal(got, want) {
		t.Fatalf("LRU order %v, want %v", got, want)
	}
}

// replaySequence runs one seeded Add/Near/Merge sequence, with
// eviction at capacity, on a fresh frozen-clock store.
func replaySequence(seed uint64) *Store {
	st, now := frozenStore(200, time.Hour)
	g := newIndexedOps(seed)
	for range 3000 {
		name := g.names[g.rng.Intn(len(g.names))]
		switch op := g.rng.Intn(10); {
		case op < 5:
			_ = st.Add(name, g.instance(name), 1+g.rng.Intn(4), 1e-3*(1+g.rng.Float64()))
		case op < 9:
			radius := testRadii[g.rng.Intn(len(testRadii))]
			st.Near(name, g.query(name, radius), radius)
		default:
			st.Merge("peer", g.snapshot(*now), 0.5, nil)
		}
		*now += 10 * g.rng.Float64()
	}
	return st
}

// TestStoreDeterministicReplay: the store's state is a function of its
// request sequence, so one sequence replayed on two fresh stores gives
// byte-equal snapshots and the same eviction order.
func TestStoreDeterministicReplay(t *testing.T) {
	a, b := replaySequence(7), replaySequence(7)
	var ea, eb bytes.Buffer
	if err := a.Snapshot("p").Encode(&ea); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot("p").Encode(&eb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
		t.Fatal("one request sequence gave two different snapshots")
	}
	if !slices.Equal(lruOrder(a), lruOrder(b)) {
		t.Fatal("one request sequence gave two different eviction orders")
	}
}

// TestStoreConcurrentNearAddMergeSnapshot runs every store operation
// from several goroutines at once on a store at capacity, for the race
// detector, then checks the index survived intact.
func TestStoreConcurrentNearAddMergeSnapshot(t *testing.T) {
	st := NewStore(256, time.Hour)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newIndexedOps(uint64(w + 1))
			for range 500 {
				name := g.names[g.rng.Intn(len(g.names))]
				switch g.rng.Intn(8) {
				case 0, 1, 2:
					if err := st.Add(name, g.instance(name), 1+g.rng.Intn(3), 1e-3); err != nil {
						t.Error(err)
						return
					}
				case 3, 4, 5:
					st.Near(name, g.instance(name), selection.DefaultAdaptiveRadius)
				case 6:
					st.Merge(fmt.Sprintf("peer-%d", w), g.snapshot(0), 0.5, nil)
				default:
					var buf bytes.Buffer
					if err := st.SnapshotLocal("p").Encode(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkIndex(t, st)
}

// fullPaperStore fills a store to its 4096-record bound the way the
// adaptive-store workload does: records round-robin over the registered
// expressions, uniform in the paper's box, three streams each. It
// returns the store and, per expression, stored points to query near.
func fullPaperStore(b *testing.B) (*Store, map[string][]expr.Instance) {
	b.Helper()
	const points = 4096
	st := NewStore(points, time.Hour)
	rng := xrand.New(1)
	names := expr.Names()
	stored := map[string][]expr.Instance{}
	for i := 0; st.Size() < points; i++ {
		name := names[i%len(names)]
		x, err := expr.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		inst := expr.PaperBox(x.Arity()).Sample(rng)
		for alg := 1; alg <= 3; alg++ {
			if err := st.Add(name, inst, alg, 1e-3*(1+rng.Float64())); err != nil {
				b.Fatal(err)
			}
		}
		stored[name] = append(stored[name], inst)
	}
	return st, stored
}

// BenchmarkStoreNear is one default-radius Near per iteration on a full
// paper-box store, per registered expression, querying points a few
// percent off stored ones.
func BenchmarkStoreNear(b *testing.B) {
	st, stored := fullPaperStore(b)
	rng := xrand.New(2)
	for _, name := range expr.Names() {
		queries := make([]expr.Instance, 256)
		for i := range queries {
			p := stored[name][rng.Intn(len(stored[name]))]
			q := make(expr.Instance, len(p))
			for j, d := range p {
				q[j] = max(1, int(float64(d)*(1+0.06*(2*rng.Float64()-1))))
			}
			queries[i] = q
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				st.Near(name, queries[i%len(queries)], selection.DefaultAdaptiveRadius)
				i++
			}
		})
	}
}

// BenchmarkStoreAddAtCapacity is one Add of a new instance per
// iteration on a full paper-box store, so every Add evicts.
func BenchmarkStoreAddAtCapacity(b *testing.B) {
	st, _ := fullPaperStore(b)
	rng := xrand.New(3)
	names := expr.Names()
	// Twice the bound of fresh instances: by the time one comes round
	// again it has been evicted, so every Add creates a record.
	type add struct {
		name string
		inst expr.Instance
	}
	adds := make([]add, 2*4096)
	for i := range adds {
		name := names[i%len(names)]
		x, err := expr.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		adds[i] = add{name, expr.PaperBox(x.Arity()).Sample(rng)}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		a := adds[i%len(adds)]
		if err := st.Add(a.name, a.inst, 1, 1e-3); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
