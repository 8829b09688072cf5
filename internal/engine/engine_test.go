package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/ir"
	"lamb/internal/xrand"
)

// ask answers one query through Do, returning its record and error.
func ask(ctx context.Context, e *Engine, q Query) (*Record, error) {
	r := e.Do(ctx, Request{Queries: []Query{q}})[0]
	return r.Record, r.Err
}

// TestEngineCachedSetsMatchDirectProperty asserts the binding layer is
// transparent: for every registered expression and randomized
// instances, the engine-cached algorithm set is identical — index,
// name, calls, shapes, inputs, flops — to a direct expr.Algorithms
// enumeration, both on first sight (miss) and on repeat (hit).
func TestEngineCachedSetsMatchDirectProperty(t *testing.T) {
	e := New(Config{})
	rng := xrand.New(0xe16e)
	for _, name := range expr.Names() {
		direct, err := expr.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			inst := make(expr.Instance, direct.Arity())
			for i := range inst {
				inst[i] = rng.IntRange(1, 400)
			}
			want := direct.Algorithms(inst)
			for pass := 0; pass < 2; pass++ { // miss, then hit
				got, err := e.Algorithms(name, inst)
				if err != nil {
					t.Fatalf("%s %v: %v", name, inst, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v pass %d: engine set differs from direct enumeration", name, inst, pass)
				}
				for i := range got {
					if got[i].Flops() != want[i].Flops() {
						t.Fatalf("%s %v algorithm %d: flops %v != %v", name, inst, i+1, got[i].Flops(), want[i].Flops())
					}
				}
			}
		}
	}
}

// TestEngineRepeatQueriesHitAllCacheLayers is the acceptance check:
// repeated identical queries are answered from the symbolic and binding
// caches — no re-enumeration, no re-binding.
func TestEngineRepeatQueriesHitAllCacheLayers(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured(), Reps: 2})
	q := Query{Expr: "aatb", Instance: expr.Instance{12, 16, 8}, Strategy: "oracle"}

	first, err := ask(context.Background(), e, q)
	if err != nil {
		t.Fatal(err)
	}
	warm := e.Stats()
	enums := ir.Enumerations()

	second, err := ask(context.Background(), e, q)
	if err != nil {
		t.Fatal(err)
	}
	// The measured oracle is genuinely noisy, so the pick may differ
	// between sequential repeats — but the candidate set must not.
	if !reflect.DeepEqual(first.Candidates, second.Candidates) {
		t.Fatalf("repeat query changed the candidates:\n%+v\n%+v", first, second)
	}
	cold := e.Stats()

	// Symbolic layer: no new enumerations.
	if got := ir.Enumerations(); got != enums {
		t.Errorf("repeat query re-enumerated: %d -> %d", enums, got)
	}
	// Binding layer: a hit, no new miss.
	if cold.Bindings.Hits <= warm.Bindings.Hits || cold.Bindings.Misses != warm.Bindings.Misses {
		t.Errorf("binding cache did not serve the repeat: %+v -> %+v", warm.Bindings, cold.Bindings)
	}
	if first.Strategy != "oracle" || first.NumAlgorithms != 5 || len(first.Candidates) != 5 {
		t.Fatalf("record %+v", first)
	}
}

// TestEngineQueryRecordMinFlops pins the record contents for the
// default strategy on a known instance: the SYRK algorithms tie for the
// minimum and the lowest index wins.
func TestEngineQueryRecordMinFlops(t *testing.T) {
	e := New(Config{})
	rec, err := ask(context.Background(), e, Query{Expr: "AATB", Instance: expr.Instance{80, 514, 768}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Expr != "aatb" || rec.Strategy != "min-flops" {
		t.Fatalf("record header %+v", rec)
	}
	if rec.Selected.Index != 1 || rec.Selected.Flops != 13_161_120 {
		t.Fatalf("selected %+v", rec.Selected)
	}
	if rec.NumAlgorithms != 5 || len(rec.Candidates) != 5 {
		t.Fatalf("candidates %+v", rec.Candidates)
	}
	if rec.Candidates[4].Flops != 126_320_640 {
		t.Fatalf("candidate 5 flops %v", rec.Candidates[4].Flops)
	}
}

// TestEngineQueryErrors covers the failure paths: unknown expression,
// bad instance, unknown strategy.
func TestEngineQueryErrors(t *testing.T) {
	e := New(Config{})
	if _, err := ask(context.Background(), e, Query{Expr: "nope", Instance: expr.Instance{1, 2, 3}}); err == nil {
		t.Error("unknown expression accepted")
	}
	if _, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: expr.Instance{1, 2}}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: expr.Instance{0, 2, 3}}); err == nil {
		t.Error("non-positive dimension accepted")
	}
	if _, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: expr.Instance{4, 5, 6}, Strategy: "magic"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	// min-predicted requires profiles: without them the answer degrades
	// to min-flops with the record stamped, rather than erroring.
	rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: expr.Instance{4, 5, 6}, Strategy: "min-predicted"})
	if err != nil {
		t.Fatalf("min-predicted without profiles: %v", err)
	}
	if rec.Strategy != "min-flops" || rec.Requested != "min-predicted" || rec.Degraded != DegradedNoProfile {
		t.Errorf("degraded record not stamped: %+v", rec)
	}
	if s := e.Stats(); s.DegradedQueries != 1 {
		t.Errorf("degraded counter %d, want 1", s.DegradedQueries)
	}
}

// TestEngineExpressionWrapperMatchesDirect exercises the engine-backed
// Expression view the experiment pipeline uses.
func TestEngineExpressionWrapperMatchesDirect(t *testing.T) {
	e := New(Config{})
	x, err := e.Expression("chain")
	if err != nil {
		t.Fatal(err)
	}
	if x.Name() != "chain-ABCD" || x.Arity() != 5 {
		t.Fatalf("wrapper identity %s/%d", x.Name(), x.Arity())
	}
	inst := expr.Instance{3, 5, 7, 11, 13}
	want := expr.NewChainABCD().Algorithms(inst)
	if got := x.Algorithms(inst); !reflect.DeepEqual(got, want) {
		t.Fatal("wrapper set differs from direct enumeration")
	}
	// Repeated calls return the identical cached slice (pointer-stable
	// for the layers that key by algorithm pointer).
	first := x.Algorithms(inst)
	second := x.Algorithms(inst)
	if &first[0] != &second[0] {
		t.Fatal("binding cache did not return the shared set")
	}
}

// TestEngineConcurrentQueries hammers one engine from many goroutines
// with a mix of identical and distinct queries; run under -race this is
// the concurrency-safety test, and every identical query must produce
// the identical record.
func TestEngineConcurrentQueries(t *testing.T) {
	e := New(Config{})
	exprs := []string{"chain", "aatb", "atab", "lstsq", "aatbc", "gls"}
	const workers = 8
	const perWorker = 30
	recs := make([][]*Record, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(7)) // same seed: workers issue identical query streams
			recs[w] = make([]*Record, perWorker)
			for i := 0; i < perWorker; i++ {
				name := exprs[i%len(exprs)]
				x, err := expr.Lookup(name)
				if err != nil {
					t.Error(err)
					return
				}
				inst := make(expr.Instance, x.Arity())
				for d := range inst {
					inst[d] = rng.IntRange(2, 200)
				}
				rec, err := ask(context.Background(), e, Query{Expr: name, Instance: inst})
				if err != nil {
					t.Errorf("%s %v: %v", name, inst, err)
					return
				}
				recs[w][i] = rec
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range recs[w] {
			if recs[0][i] == nil || recs[w][i] == nil {
				t.Fatalf("missing record %d/%d", w, i)
			}
			if !reflect.DeepEqual(recs[0][i], recs[w][i]) {
				t.Fatalf("worker %d query %d: records diverge", w, i)
			}
		}
	}
	s := e.Stats()
	if s.Queries != workers*perWorker {
		t.Fatalf("queries %d, want %d", s.Queries, workers*perWorker)
	}
	if s.Bindings.Hits+s.Bindings.Misses+s.Deduped < s.Queries {
		t.Fatalf("cache accounting inconsistent: %+v", s)
	}
}

// TestEngineConcurrentBatch exercises batch Do requests under -race, mixing
// valid and invalid queries and checking order preservation.
func TestEngineConcurrentBatch(t *testing.T) {
	e := New(Config{})
	qs := []Query{
		{Expr: "aatb", Instance: expr.Instance{30, 40, 50}},
		{Expr: "unknown", Instance: expr.Instance{1}},
		{Expr: "chain", Instance: expr.Instance{3, 5, 7, 11, 13}},
		{Expr: "aatb", Instance: expr.Instance{30, 40, 50}}, // duplicate of [0]
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := e.Do(context.Background(), Request{Queries: qs})
			if len(res) != len(qs) {
				t.Errorf("got %d results", len(res))
				return
			}
			if res[0].Err != nil || res[2].Err != nil || res[3].Err != nil {
				t.Errorf("errors: %v %v %v", res[0].Err, res[2].Err, res[3].Err)
				return
			}
			if res[1].Err == nil {
				t.Error("unknown expression succeeded")
				return
			}
			if !reflect.DeepEqual(res[0].Record, res[3].Record) {
				t.Error("duplicate queries diverge within a batch")
			}
			if res[2].Record.Expr != "chain" {
				t.Errorf("order not preserved: %+v", res[2].Record)
			}
		}()
	}
	wg.Wait()
}

// TestEngineSingleflightDedup pins the dedup mechanics deterministically
// (white box): a query arriving while an identical one is in flight
// waits for it and shares its record.
func TestEngineSingleflightDedup(t *testing.T) {
	e := New(Config{})
	q := Query{Expr: "aatb", Instance: expr.Instance{10, 20, 30}}
	key := queryKey{expr: "aatb", inst: q.Instance.Key(), strat: "min-flops"}

	// Plant an in-flight entry, as if another goroutine were computing.
	f := &flight{done: make(chan struct{})}
	e.sfMu.Lock()
	e.inflight[key] = f
	e.sfMu.Unlock()

	done := make(chan *Record, 1)
	go func() {
		rec, err := ask(context.Background(), e, q)
		if err != nil {
			t.Error(err)
		}
		done <- rec
	}()

	// Handshake: the query increments the dedup counter the moment it
	// joins the in-flight entry, before blocking on it.
	for i := 0; e.deduped.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if e.deduped.Load() != 1 {
		t.Fatal("query did not join the in-flight twin")
	}
	select {
	case <-done:
		t.Fatal("query did not wait for the in-flight twin")
	default:
	}

	want, _, err := e.answer(context.Background(), q, "min-flops")
	if err != nil {
		t.Fatal(err)
	}
	f.rec = want
	e.sfMu.Lock()
	delete(e.inflight, key)
	e.sfMu.Unlock()
	close(f.done)

	if got := <-done; !reflect.DeepEqual(got, want) {
		t.Fatalf("deduplicated query returned %+v, want %+v", got, want)
	}
	if s := e.Stats(); s.Deduped != 1 {
		t.Fatalf("deduped counter %d, want 1", s.Deduped)
	}
}

// TestEngineBindingEviction keeps the LRU bounded: more distinct
// instances than capacity evict, and re-querying an evicted instance
// re-binds correctly.
func TestEngineBindingEviction(t *testing.T) {
	e := New(Config{BindEntries: 4})
	for i := 0; i < 12; i++ {
		inst := expr.Instance{10 + i, 20, 30}
		if _, err := e.Algorithms("aatb", inst); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Bindings.Size > 4 {
		t.Fatalf("binding cache grew to %d", s.Bindings.Size)
	}
	if s.Bindings.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// The oldest entry was evicted; re-binding it must still be correct.
	algs, err := e.Algorithms("aatb", expr.Instance{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	want := expr.NewAATB().Algorithms(expr.Instance{10, 20, 30})
	if !reflect.DeepEqual(algs, want) {
		t.Fatal("re-bound set differs after eviction")
	}
}
