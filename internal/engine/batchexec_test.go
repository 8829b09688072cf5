package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// engineFilled evaluates the algorithm query q selected (r's record)
// through a single-instance plan filled from rng. With rng one stream of
// the engine's fill seed consumed in bucket order, this is what a fused
// plan's instance-major fill computes for each of its queries.
func engineFilled(t *testing.T, e *Engine, q Query, r Result, rng *xrand.Rand) *mat.Dense {
	t.Helper()
	algs, err := e.Algorithms(q.Expr, q.Instance)
	if err != nil {
		t.Fatal(err)
	}
	for i := range algs {
		if algs[i].Index == r.Record.Selected.Index {
			p, err := exec.CompilePlan(&algs[i])
			if err != nil {
				t.Fatal(err)
			}
			p.FillInputs(rng)
			p.Execute()
			return p.Output()
		}
	}
	t.Fatalf("selected algorithm %d not in the bound set", r.Record.Selected.Index)
	return nil
}

// TestQueryBatchExecFusedHomogeneous pins the fused result path for
// identical queries: same expression, same instance, min-flops — the
// bucket executes through one homogeneous batch plan compiled into the
// engine's slab, every result is marked fused, and each output is
// bitwise identical to the selected algorithm's single-instance plan
// filled from the engine's fill stream in bucket order.
func TestQueryBatchExecFusedHomogeneous(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	const n = 4
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Expr: "aatb", Instance: expr.Instance{12, 16, 8}}
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	rng := xrand.New(batchFillSeed)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !r.Fused {
			t.Errorf("query %d not fused", i)
		}
		if r.Output == nil {
			t.Fatalf("query %d: nil output", i)
		}
		if !bitEqual(r.Output, engineFilled(t, e, qs[i], r, rng)) {
			t.Errorf("query %d: fused output differs from single-instance evaluation", i)
		}
	}
	s := e.Stats()
	if s.FusedQueries != n {
		t.Errorf("fused_queries = %d, want %d", s.FusedQueries, n)
	}
	if e.slab.Cap() == 0 {
		t.Error("the homogeneous bucket compiled no plan into the engine's slab")
	}
	checkSlab(t, e)
}

// TestQueryBatchExecFusedMixed pins the heterogeneous result path:
// queries of one expression at different shapes within one octave per
// dimension share a bucket, execute through one padded mixed plan, and
// each per-instance output is bitwise identical to its single-instance
// plan filled from the engine's fill stream in bucket order.
func TestQueryBatchExecFusedMixed(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	insts := []expr.Instance{{12, 16, 8}, {14, 18, 10}, {13, 17, 9}}
	qs := make([]Query, len(insts))
	for i, inst := range insts {
		qs[i] = Query{Expr: "aatb", Instance: inst}
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	rng := xrand.New(batchFillSeed)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Record.Selected.Index != res[0].Record.Selected.Index {
			t.Fatalf("query %d left the bucket; the test needs one mixed bucket", i)
		}
		if !r.Fused {
			t.Errorf("query %d not fused despite one bucket", i)
		}
		if !bitEqual(r.Output, engineFilled(t, e, qs[i], r, rng)) {
			t.Errorf("query %d: mixed fused output differs from single-instance evaluation", i)
		}
	}
	if s := e.Stats(); s.FusedQueries != uint64(len(insts)) {
		t.Errorf("fused_queries = %d, want %d", s.FusedQueries, len(insts))
	}
	checkSlab(t, e)
}

// TestQueryBatchExecDefaultFillDeterministic pins that computed operands
// are filled from a deterministic stream: two identical batches produce
// bitwise-identical outputs.
func TestQueryBatchExecDefaultFillDeterministic(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	qs := []Query{
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
	}
	a := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	b := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("query %d: %v / %v", i, a[i].Err, b[i].Err)
		}
		if !mat.Equal(a[i].Output, b[i].Output) {
			t.Errorf("query %d: default-filled outputs differ across runs", i)
		}
	}
}

// TestQueryBatchExecRejectUnregistered pins the Unregistered reject:
// the simulated backend has no batched path, so a fusable-looking
// bucket executes per query and is counted.
func TestQueryBatchExecRejectUnregistered(t *testing.T) {
	e := New(Config{}) // simulated backend
	qs := []Query{
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("query %d fused on an executor without a batched path", i)
		}
		if r.Output == nil {
			t.Errorf("query %d: nil output on the unfused fallback", i)
		}
	}
	s := e.Stats()
	if s.FuseRejected.Unregistered < 2 {
		t.Errorf("fuse_rejected.unregistered = %d, want >= 2", s.FuseRejected.Unregistered)
	}
	if s.FusedQueries != 0 {
		t.Errorf("fused_queries = %d, want 0", s.FusedQueries)
	}
}

// TestQueryBatchExecRejectTooBigArena pins the TooBigArena reject: a
// bucket whose instance arenas exceed the fused slab budget executes
// per query and is counted.
func TestQueryBatchExecRejectTooBigArena(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	inst := expr.Instance{512, 512, 4}
	me := e.timer.Exec.(*exec.Measured)
	algs, err := e.Algorithms("aatb", inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range algs {
		if w := me.FuseChunk(&algs[i]); w >= 2 {
			t.Skipf("instance %v unexpectedly inside the fused regime (chunk %d)", inst, w)
		}
	}
	qs := []Query{
		{Expr: "aatb", Instance: inst},
		{Expr: "aatb", Instance: inst},
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("query %d fused outside the fused regime", i)
		}
	}
	if s := e.Stats(); s.FuseRejected.TooBigArena < 2 {
		t.Errorf("fuse_rejected.too_big_arena = %d, want >= 2", s.FuseRejected.TooBigArena)
	}
}

// TestQueryBatchExecRejectHeteroPrepadding drives execBucket directly
// with two instances whose chunk widths are more than the padding gate
// apart: the bucket must execute unfused and count the reject. (End to
// end such pairs rarely share an octave bucket, which is the point of
// octave bucketing; the gate is the second line of defence.)
func TestQueryBatchExecRejectHeteroPrepadding(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	be := e.timer.Exec.(exec.BatchExecutor)
	small, err := e.Algorithms("aatb", expr.Instance{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	large, err := e.Algorithms("aatb", expr.Instance{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	var sel []target
	for _, alg := range []*expr.Algorithm{&small[0], &large[0]} {
		lay, err := exec.NewLayout(alg)
		if err != nil {
			t.Fatal(err)
		}
		sel = append(sel, target{alg: alg, lay: lay})
	}
	wa, wb := be.LayoutChunk(sel[0].lay), be.LayoutChunk(sel[1].lay)
	if wa < 2 || wb < 2 || wa <= heteroPaddingMax*wb {
		t.Skipf("chunk widths %d/%d do not exercise the padding gate", wa, wb)
	}
	out := make([]Result, 2)
	outputSlab(sel, out) // as compute does before any bucket runs
	e.execBucket([]int{0, 1}, sel, out)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("instance %d fused across the padding gate", i)
		}
		if r.Output == nil {
			t.Errorf("instance %d: nil output on the unfused fallback", i)
		}
	}
	if s := e.Stats(); s.FuseRejected.HeteroPrepadding != 2 {
		t.Errorf("fuse_rejected.hetero_prepadding = %d, want 2", s.FuseRejected.HeteroPrepadding)
	}
}

// TestComputeOnUsedSlabMatchesFresh pins that the engine's slab is
// reused unzeroed without leaking into results: a mixed fused bucket
// computed on a slab that earlier requests filled returns outputs
// bit-identical to a fresh engine's.
func TestComputeOnUsedSlabMatchesFresh(t *testing.T) {
	ctx := context.Background()
	earlier := []Query{
		{Expr: "gls", Instance: expr.Instance{40, 30, 36, 20}},
		{Expr: "gls", Instance: expr.Instance{41, 31, 37, 21}},
		{Expr: "aatb", Instance: expr.Instance{60, 50, 40}},
	}
	insts := []expr.Instance{{12, 16, 8}, {13, 17, 9}, {14, 18, 10}, {15, 20, 12}}
	qs := make([]Query, len(insts))
	for i, inst := range insts {
		qs[i] = Query{Expr: "lstsq", Instance: inst}
	}
	e := New(Config{Executor: exec.NewMeasured()})
	for i, r := range e.Do(ctx, Request{Queries: earlier, Compute: true}) {
		if r.Err != nil || r.Output == nil {
			t.Fatalf("earlier query %d: output %v, err %v", i, r.Output != nil, r.Err)
		}
	}
	used := e.Do(ctx, Request{Queries: qs, Compute: true})
	fresh := New(Config{Executor: exec.NewMeasured()}).Do(ctx, Request{Queries: qs, Compute: true})
	for i := range qs {
		if used[i].Err != nil || fresh[i].Err != nil {
			t.Fatalf("query %d: used %v, fresh %v", i, used[i].Err, fresh[i].Err)
		}
		if !used[i].Fused {
			t.Errorf("query %d on the used slab not fused", i)
		}
		if !bitEqual(used[i].Output, fresh[i].Output) {
			t.Errorf("query %d: output on the used slab differs from a fresh engine's", i)
		}
	}
	checkSlab(t, e)
}

// checkSlab fails the test if the engine's slab is still lent to a plan.
func checkSlab(t *testing.T, e *Engine) {
	t.Helper()
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if e.slab.Lent() {
		t.Error("the engine's slab is still lent after the request")
	}
}

// bitEqual reports whether a and b have the same shape and the same
// bits in every element.
func bitEqual(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if math.Float64bits(a.Data[i+j*a.Stride]) != math.Float64bits(b.Data[i+j*b.Stride]) {
				return false
			}
		}
	}
	return true
}

// TestComputeBindsOnce pins that a Compute request binds each query's
// set once: execution takes the set the answer came from, so N fresh
// instances record N bind misses and no hits, and the same request
// again records N hits, not 2N.
func TestComputeBindsOnce(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	var qs []Query
	for d := 20; d < 28; d++ {
		qs = append(qs, Query{Expr: "aatb", Instance: expr.Instance{d, d + 1, d + 2}})
	}
	n := uint64(len(qs))
	for pass, want := range []cacheCounts{{misses: n}, {hits: n, misses: n}} {
		for i, r := range e.Do(context.Background(), Request{Queries: qs, Compute: true}) {
			if r.Err != nil || r.Output == nil {
				t.Fatalf("pass %d, query %d: output %v, err %v", pass, i, r.Output != nil, r.Err)
			}
		}
		b := e.Stats().Bindings
		if got := (cacheCounts{hits: b.Hits, misses: b.Misses}); got != want {
			t.Errorf("after pass %d: %d bind hits and %d misses, want %d and %d", pass, got.hits, got.misses, want.hits, want.misses)
		}
	}
}

// cacheCounts is a cache's hit and miss counters.
type cacheCounts struct{ hits, misses uint64 }

// TestBoundSetLayoutOnce pins the layout memo: goroutines asking a
// bound set for its algorithms' layouts at once all get one pointer per
// algorithm, and the set keeps it for later requests.
func TestBoundSetLayoutOnce(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	b := memoFor(t, e, "lstsq", expr.Instance{40, 30, 20})
	const workers = 8
	got := make([][]*exec.Layout, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range b.algs {
				got[w] = append(got[w], b.layout(i))
			}
		}()
	}
	wg.Wait()
	for i := range b.algs {
		first := got[0][i]
		if first == nil {
			t.Fatalf("algorithm %d: no layout", i)
		}
		for w := range got {
			if got[w][i] != first {
				t.Errorf("algorithm %d: goroutine %d got another layout", i, w)
			}
		}
		if b.layout(i) != first {
			t.Errorf("algorithm %d: a later request got another layout", i)
		}
	}
}

// TestExecUnlaidTargetReportsValidation pins the per-query path for a
// selected algorithm without a layout: its query fails with the
// validation error exec.NewLayout gives, and no output.
func TestExecUnlaidTargetReportsValidation(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	alg := &expr.Algorithm{Name: "empty"}
	_, want := exec.NewLayout(alg)
	if want == nil {
		t.Fatal("an algorithm without calls validated")
	}
	out := make([]Result, 1)
	e.execBucket([]int{0}, []target{{alg: alg}}, out)
	if out[0].Err == nil || out[0].Err.Error() != want.Error() {
		t.Errorf("err %v, want %v", out[0].Err, want)
	}
	if out[0].Output != nil || out[0].Fused {
		t.Errorf("output %v, fused %v; want neither", out[0].Output, out[0].Fused)
	}
	checkSlab(t, e)
}
