package engine

import (
	"context"
	"runtime"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/xrand"
)

// computeBatchWidth and computeBatchOctave shape the compute fixture
// like serve's batch-compute traffic: each request carries 64 distinct
// queries of one expression with every dimension in [32, 64).
const (
	computeBatchWidth  = 64
	computeBatchOctave = 32
)

// computeBatchRequests builds one Compute request per registered
// expression, each of computeBatchWidth distinct instances in one
// shape octave, so every request executes through fused mixed plans.
func computeBatchRequests(tb testing.TB) []Request {
	tb.Helper()
	rng := xrand.New(0xc0b7e)
	var reqs []Request
	for _, name := range expr.Names() {
		x, err := expr.Lookup(name)
		if err != nil {
			tb.Fatal(err)
		}
		box := expr.UniformBox(x.Arity(), computeBatchOctave, 2*computeBatchOctave-1)
		seen := map[string]bool{}
		qs := make([]Query, 0, computeBatchWidth)
		for len(qs) < computeBatchWidth {
			inst := box.Sample(rng)
			if seen[inst.String()] {
				continue
			}
			seen[inst.String()] = true
			qs = append(qs, Query{Expr: name, Instance: inst})
		}
		reqs = append(reqs, Request{Queries: qs, Compute: true})
	}
	return reqs
}

// doCompute runs one Compute request and fails on any query error.
func doCompute(tb testing.TB, e *Engine, req Request) {
	for i, r := range e.Do(context.Background(), req) {
		if r.Err != nil || r.Output == nil {
			tb.Fatalf("%s query %d: output %v, err %v", req.Queries[i].Expr, i, r.Output != nil, r.Err)
		}
	}
}

// BenchmarkDoComputeBatch times what serve's batch-compute path does per
// request on the blas backend: select, bucket, compile the fused plans,
// fill, execute and copy out 64 computed queries, rotating over every
// registered expression. One warm pass binds every instance first.
func BenchmarkDoComputeBatch(b *testing.B) {
	reqs := computeBatchRequests(b)
	e := New(Config{Executor: exec.NewMeasured()})
	for _, req := range reqs {
		doCompute(b, e, req)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		doCompute(b, e, reqs[i%len(reqs)])
		i++
	}
}

// computeBatchBytesBudget and computeBatchAllocsBudget bound what one
// warm compute request of the fixture allocates, each the largest of
// six runs plus 10% headroom. The allocation count is from queries
// keyed by ir.Key rather than by instance strings (564 allocations,
// 1302941 bytes); the byte count is from the adaptive blend
// accumulating straight into its posteriors (1293744 bytes, 960
// allocations), which the struct keys' wider maps stay within. About
// 1.1 MB of the bytes is the request's output slab. With string keys
// a request made 958 allocations; with four scratch slices and a map
// per blend, 1215; with one closure per bound call, 1467; before the
// slab and the layout memo it allocated 1445789 bytes and 4047
// allocations; before pooled arenas and the output slab, 12.0 MB.
const (
	computeBatchBytesBudget  = 1293744 * 11 / 10
	computeBatchAllocsBudget = 564 * 11 / 10
)

// TestDoComputeBatchBytesBudget pins the allocation volume and count of
// warm compute requests: plan arenas come from the engine's slab,
// layouts from the bound sets, and outputs share one slab per request,
// so what a request allocates is its records, plan headers and steps,
// and its output slab.
func TestDoComputeBatchBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation volume")
	}
	reqs := computeBatchRequests(t)
	e := New(Config{Executor: exec.NewMeasured()})
	for _, req := range reqs {
		doCompute(t, e, req)
	}
	for _, req := range reqs {
		doCompute(t, e, req) // grows the slab to the largest chunk
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		doCompute(t, e, req)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(len(reqs))
	allocs := (after.Mallocs - before.Mallocs) / uint64(len(reqs))
	t.Logf("%d bytes and %d allocations per warm compute request", bytes, allocs)
	if bytes > computeBatchBytesBudget {
		t.Errorf("warm compute request allocates %d bytes, budget %d", bytes, computeBatchBytesBudget)
	}
	if allocs > computeBatchAllocsBudget {
		t.Errorf("warm compute request makes %d allocations, budget %d", allocs, computeBatchAllocsBudget)
	}
}

// selectMemoHitAllocsBudget bounds what one warm min-flops query on
// aatb allocates when its bind, its prior memo and its rank memo all
// hit. The count is the same in every run, so the budget is that count
// with no headroom: 12 with the prior memoised on the bound set, 13
// when the prior was predicted per query, 18 when the coalescing,
// singleflight and bind keys were strings and the simulated executor's
// name was concatenated per record.
const selectMemoHitAllocsBudget = 12

// TestSelectMemoHitAllocsBudget pins the allocation count of a warm
// single min-flops query whose bound set, prior and ranking are
// memoised, the common case of select traffic.
func TestSelectMemoHitAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	e := New(Config{})
	req := Request{Queries: []Query{{Expr: "aatb", Instance: expr.Instance{64, 48, 32}, Strategy: "min-flops"}}}
	for range 2 {
		if r := e.Do(context.Background(), req); r[0].Err != nil {
			t.Fatal(r[0].Err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() { e.Do(context.Background(), req) })
	t.Logf("%.0f allocations per warm memo-hit select", allocs)
	if allocs > selectMemoHitAllocsBudget {
		t.Errorf("warm memo-hit select makes %.0f allocations, budget %d", allocs, selectMemoHitAllocsBudget)
	}
}
