package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/par"
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
// shape octave.
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
		reqs = append(reqs, Request{Queries: distinctQueries(rng, name, "", box, computeBatchWidth), Compute: true})
	}
	return reqs
}

// distinctQueries samples n queries of one expression and strategy at
// distinct instances of box.
func distinctQueries(rng *xrand.Rand, name, strategy string, box expr.Box, n int) []Query {
	seen := map[string]bool{}
	qs := make([]Query, 0, n)
	for len(qs) < n {
		inst := box.Sample(rng)
		if !seen[inst.String()] {
			seen[inst.String()] = true
			qs = append(qs, Query{Expr: name, Instance: inst, Strategy: strategy})
		}
	}
	return qs
}

// doCompute runs one Compute request and fails on any query error, or
// on an output that OmitOutput should have left out or not.
func doCompute(tb testing.TB, e *Engine, req Request) {
	if err := computeErr(e, req); err != nil {
		tb.Fatal(err)
	}
}

// computeErr runs one Compute request and reports its first query
// error, or an output that OmitOutput should have left out or not.
func computeErr(e *Engine, req Request) error {
	for i, r := range e.Do(context.Background(), req) {
		if r.Err != nil || (r.Output == nil) != req.OmitOutput {
			return fmt.Errorf("%s query %d: output %v, err %v", req.Queries[i].Expr, i, r.Output != nil, r.Err)
		}
	}
	return nil
}

// BenchmarkDoComputeBatch times what serve's batch-compute path does per
// request on the blas backend: select, then compile, fill, execute and
// copy out 64 computed queries one at a time, rotating over every
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

// BenchmarkDoComputeBatchParallel is BenchmarkDoComputeBatch sent from
// GOMAXPROCS goroutines at once (b.RunParallel), so ms/op at -cpu 2
// against -cpu 1 is how much a second core adds to compute throughput:
// each request borrows a slab of its own. parallel_ratio is the core
// check (par.ParallelRatio), taken before the timed loop; a speedup
// reads as one only where it is near 2 at -cpu 2.
func BenchmarkDoComputeBatchParallel(b *testing.B) {
	reqs := computeBatchRequests(b)
	e := New(Config{Executor: exec.NewMeasured()})
	for _, req := range reqs {
		doCompute(b, e, req)
	}
	ratio := par.ParallelRatio()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := computeErr(e, reqs[int(next.Add(1))%len(reqs)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(ratio, "parallel_ratio")
}

// BenchmarkDoOracleBatch times one oracle request of 16 distinct aatb
// queries with every dimension in [16, 32) on the blas backend at 3
// repetitions: every query measures each of its algorithms per
// instance, one cache flush and one execution per repetition.
func BenchmarkDoOracleBatch(b *testing.B) {
	req := Request{Queries: distinctQueries(xrand.New(0x04ac1e), "aatb", "oracle", expr.UniformBox(3, 16, 31), 16)}
	e := New(Config{Executor: exec.NewMeasured(), Reps: 3})
	b.ReportAllocs()
	for b.Loop() {
		for i, r := range e.Do(context.Background(), req) {
			if r.Err != nil || r.Record.Degraded != "" {
				b.Fatalf("query %d: record %+v, err %v", i, r.Record, r.Err)
			}
		}
	}
}

// computeBatchBytesBudget and computeBatchAllocsBudget bound what one
// warm compute request of the fixture allocates, each the largest of
// six runs plus 10% headroom. The allocation count is from queries
// keyed by ir.Key rather than by instance strings (564 allocations,
// 1302941 bytes); the byte count is from the adaptive blend
// accumulating straight into its posteriors (1293744 bytes, 960
// allocations), which the struct keys' wider maps stay within. About
// 1.1 MB of the bytes is the request's output slab. Computing every
// query alone in the slab's one reusable plan reads 402 allocations and
// 1253880 bytes, within both. With string keys
// a request made 958 allocations; with four scratch slices and a map
// per blend, 1215; with one closure per bound call, 1467; before the
// slab and the layout memo it allocated 1445789 bytes and 4047
// allocations; before pooled arenas and the output slab, 12.0 MB.
// computeChecksumBytesBudget bounds the same request with OmitOutput,
// serve's setting, the largest of six runs plus 10%: without the
// output slab and its copies a request allocates about 88 KB (1.26 MB
// with them) in 400 allocations (402 to 404 with them).
const (
	computeBatchBytesBudget    = 1293744 * 11 / 10
	computeBatchAllocsBudget   = 564 * 11 / 10
	computeChecksumBytesBudget = 88317 * 11 / 10
)

// TestDoComputeBatchBytesBudget pins the allocation volume and count of
// warm compute requests: plan arenas and headers come from the
// engine's slabs, layouts from the bound sets, and outputs share one
// slab per request, so what a request allocates is mostly its records
// and its output slab. With OmitOutput, serve's setting, there is no
// output slab and the request is held to its own byte budget.
func TestDoComputeBatchBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation volume")
	}
	for _, tc := range []struct {
		name         string
		omit         bool
		bytes, count uint64
	}{
		{"outputs", false, computeBatchBytesBudget, computeBatchAllocsBudget},
		{"checksums", true, computeChecksumBytesBudget, computeBatchAllocsBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := computeBatchRequests(t)
			for i := range reqs {
				reqs[i].OmitOutput = tc.omit
			}
			e := New(Config{Executor: exec.NewMeasured()})
			for _, req := range reqs {
				doCompute(t, e, req)
			}
			for _, req := range reqs {
				doCompute(t, e, req) // grows each slab to the largest plan it runs
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
			if bytes > tc.bytes {
				t.Errorf("warm compute request allocates %d bytes, budget %d", bytes, tc.bytes)
			}
			if allocs > tc.count {
				t.Errorf("warm compute request makes %d allocations, budget %d", allocs, tc.count)
			}
		})
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
