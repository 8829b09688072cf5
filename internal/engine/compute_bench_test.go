package engine

import (
	"context"
	"runtime"
	"runtime/debug"
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

// computeBatchBytesBudget bounds the bytes one warm compute request of
// the fixture allocates: the figure measured with the blas packing
// buffers on GC-surviving free lists (1445789 bytes, the largest of four
// runs, which spread by under 500 bytes), plus 10% headroom. With
// pooled arenas and one output slab per request it was first measured
// at 1434106 bytes and budgeted with 25% headroom; before them a request
// allocated 12.0 MB.
const computeBatchBytesBudget = 1445789 * 11 / 10

// TestDoComputeBatchBytesBudget pins the allocation volume of warm
// compute requests: plan arenas come from the pool and outputs share one
// slab per request, so what a request allocates is plan headers,
// closures and its output slab. The collector is held off for the
// measured pass, because a collection empties the pool (see
// internal/exec/arena.go) and the refill would be charged to whichever
// request came next.
func TestDoComputeBatchBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation volume")
	}
	reqs := computeBatchRequests(t)
	e := New(Config{Executor: exec.NewMeasured()})
	for _, req := range reqs {
		doCompute(t, e, req)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, req := range reqs {
		doCompute(t, e, req) // refills the pool after any collection
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		doCompute(t, e, req)
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / uint64(len(reqs))
	t.Logf("%d bytes allocated per warm compute request", perReq)
	if perReq > computeBatchBytesBudget {
		t.Errorf("warm compute request allocates %d bytes, budget %d", perReq, computeBatchBytesBudget)
	}
}
