package engine

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// engineFilled evaluates the algorithm query q selected (r's record)
// through a plan of its own filled from a fresh stream of the engine's
// fill seed: what the engine computes for q, whatever its request.
func engineFilled(t *testing.T, e *Engine, q Query, r Result) *mat.Dense {
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
			p.FillInputs(xrand.New(batchFillSeed))
			p.Execute()
			return p.Output()
		}
	}
	t.Fatalf("selected algorithm %d not in the bound set", r.Record.Selected.Index)
	return nil
}

// TestQueryBatchExecFusedHomogeneous pins the result path for identical
// queries — same expression, same instance, min-flops — which once
// shared a fused plan: each query runs alone in the engine's slab, and
// each output is bitwise identical to the selected algorithm's own plan
// filled from a fresh stream of the engine's fill seed.
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
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Output == nil {
			t.Fatalf("query %d: nil output", i)
		}
		if !bitEqual(r.Output, engineFilled(t, e, qs[i], r)) {
			t.Errorf("query %d: output differs from single-instance evaluation", i)
		}
	}
	grown := 0
	for i := range e.slabs {
		if e.slabs[i].Cap() > 0 {
			grown++
		}
	}
	if grown != 1 {
		t.Errorf("the request compiled plans into %d of the engine's slabs, want 1", grown)
	}
	checkSlabs(t, e)
}

// TestQueryBatchExecFusedMixed pins the result path for queries of one
// expression and one selected algorithm at different shapes within one
// octave per dimension, which once shared a padded fused plan: each
// output is bitwise identical to its own plan filled from a fresh
// stream of the engine's fill seed.
func TestQueryBatchExecFusedMixed(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	insts := []expr.Instance{{12, 16, 8}, {14, 18, 10}, {13, 17, 9}}
	qs := make([]Query, len(insts))
	for i, inst := range insts {
		qs[i] = Query{Expr: "aatb", Instance: inst}
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Record.Selected.Index != res[0].Record.Selected.Index {
			t.Fatalf("query %d selected another algorithm; the test needs one", i)
		}
		if !bitEqual(r.Output, engineFilled(t, e, qs[i], r)) {
			t.Errorf("query %d: output differs from single-instance evaluation", i)
		}
	}
	checkSlabs(t, e)
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

// TestComputeOnUsedSlabMatchesFresh pins that the engine's slab is
// reused unzeroed without leaking into results: queries computed on a
// slab that earlier, larger requests filled return outputs
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
		if !bitEqual(used[i].Output, fresh[i].Output) {
			t.Errorf("query %d: output on the used slab differs from a fresh engine's", i)
		}
	}
	checkSlabs(t, e)

	// The same from several goroutines at once on one engine: each
	// request runs in whichever slab it borrows, used or not, and must
	// still match the fresh engine.
	shared := New(Config{Executor: exec.NewMeasured()})
	concurrently(computeGoroutines, func(g int) {
		for pass := range 3 {
			req := Request{Queries: qs, Compute: true}
			if (g+pass)%2 == 0 {
				req.Queries = earlier
			}
			for i, r := range shared.Do(ctx, req) {
				switch {
				case r.Err != nil || r.Output == nil:
					t.Errorf("goroutine %d pass %d query %d: output %v, err %v", g, pass, i, r.Output != nil, r.Err)
				case (g+pass)%2 != 0 && !bitEqual(r.Output, fresh[i].Output):
					t.Errorf("goroutine %d pass %d query %d: output beside concurrent requests differs from a fresh engine's", g, pass, i)
				}
			}
		}
	})
	checkSlabs(t, shared)
}

// checkSlabs fails the test unless every one of the engine's slabs is
// back in its free channel and none is still lent to a plan.
func checkSlabs(t *testing.T, e *Engine) {
	t.Helper()
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if len(e.slabs) != runtime.GOMAXPROCS(0) {
		t.Errorf("the engine has %d slabs, want one per core (%d)", len(e.slabs), runtime.GOMAXPROCS(0))
	}
	if n := len(e.free); n != len(e.slabs) {
		t.Errorf("%d of the engine's %d slabs are back after the request", n, len(e.slabs))
	}
	for i := range e.slabs {
		if e.slabs[i].Lent() {
			t.Errorf("slab %d is still lent after the request", i)
		}
	}
}

// concurrently runs f(g) for g in [0, n) on n goroutines and waits for
// them all. f reports failures with t.Errorf, not t.Fatalf.
func concurrently(n int, f func(g int)) {
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g)
		}()
	}
	wg.Wait()
}

// computeGoroutines is how many goroutines the concurrent compute tests
// send requests from: more than the slabs of a two-core engine, so
// requests also wait for a slab.
const computeGoroutines = 4

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
	e.execTargets([]target{{alg: alg}}, out)
	if out[0].Err == nil || out[0].Err.Error() != want.Error() {
		t.Errorf("err %v, want %v", out[0].Err, want)
	}
	if out[0].Output != nil {
		t.Errorf("output %v, want none", out[0].Output)
	}
	checkSlabs(t, e)
}

// TestComputedOutputIndependentOfRequest pins that a computed output is
// a function of (expression, instance, selected algorithm) alone: for
// every registered expression, a query's output bits are the same
// computed alone, inside a request of instances of its octave that
// selected its algorithm, and inside a request of the other
// expressions' queries.
func TestComputedOutputIndependentOfRequest(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Executor: exec.NewMeasured()})
	names := expr.Names()
	at := func(name string, base int) Query {
		x, err := expr.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		inst := make(expr.Instance, x.Arity())
		for d := range inst {
			inst[d] = base + d
		}
		return Query{Expr: name, Instance: inst}
	}
	computed := func(req Request, i int) Result {
		t.Helper()
		r := e.Do(ctx, req)[i]
		if r.Err != nil || r.Output == nil {
			t.Fatalf("%s %v: output %v, err %v", req.Queries[i].Expr, req.Queries[i].Instance, r.Output != nil, r.Err)
		}
		return r
	}
	var cases []placed
	for _, name := range names {
		q := at(name, 10)
		alone := computed(Request{Queries: []Query{q}, Compute: true}, 0)

		mixed := []Query{q}
		for _, base := range []int{8, 9, 11} {
			n := at(name, base)
			if n.Instance.Octaves() != q.Instance.Octaves() {
				t.Fatalf("%s: %v and %v do not share an octave", name, n.Instance, q.Instance)
			}
			if computed(Request{Queries: []Query{n}, Compute: true}, 0).Record.Selected.Index == alone.Record.Selected.Index {
				mixed = append([]Query{n}, mixed...)
			}
		}
		if len(mixed) < 3 {
			t.Fatalf("%s: only %d octave neighbours of %v select its algorithm", name, len(mixed)-1, q.Instance)
		}
		if !bitEqual(computed(Request{Queries: mixed, Compute: true}, len(mixed)-1).Output, alone.Output) {
			t.Errorf("%s: output inside a request of its octave and algorithm differs from the output alone", name)
		}

		var others []Query
		for _, other := range names {
			if other != name {
				others = append(others, at(other, 12))
			}
		}
		among := append(append(others[:len(others)/2:len(others)/2], q), others[len(others)/2:]...)
		if !bitEqual(computed(Request{Queries: among, Compute: true}, len(others)/2).Output, alone.Output) {
			t.Errorf("%s: output inside a request of other expressions differs from the output alone", name)
		}
		cases = append(cases,
			placed{name + " among its octave", mixed, len(mixed) - 1, alone.Output},
			placed{name + " among other expressions", among, len(others) / 2, alone.Output})
	}
	checkSlabs(t, e)

	// The same requests again from several goroutines at once, each
	// starting at another case, so requests of different expressions run
	// side by side in the engine's slabs.
	concurrently(computeGoroutines, func(g int) {
		for k := range cases {
			c := cases[(k+g*len(cases)/computeGoroutines)%len(cases)]
			r := e.Do(ctx, Request{Queries: c.qs, Compute: true})[c.at]
			if r.Err != nil || !bitEqual(r.Output, c.want) {
				t.Errorf("goroutine %d, %s: err %v or output beside concurrent requests differs from the output alone", g, c.label, r.Err)
			}
		}
	})
	checkSlabs(t, e)
}

// placed is a query placed at index at of a request of queries qs, and
// the output it computes alone.
type placed struct {
	label string
	qs    []Query
	at    int
	want  *mat.Dense
}

// TestOmitOutputChecksumMatchesOutput pins the checksum path: for every
// registered expression, a request with OmitOutput returns no outputs,
// and each query's shape and checksum equal, bit for bit, the default
// path's Output shape and a sum over that Output column by column, rows
// in order.
func TestOmitOutputChecksumMatchesOutput(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Executor: exec.NewMeasured()})
	for _, req := range computeBatchRequests(t) {
		req.Queries = req.Queries[:8]
		full := e.Do(ctx, req)
		req.OmitOutput = true
		sums := e.Do(ctx, req)
		for i, q := range req.Queries {
			f, s := full[i], sums[i]
			if f.Err != nil || s.Err != nil {
				t.Fatalf("%s %v: default err %v, checksum err %v", q.Expr, q.Instance, f.Err, s.Err)
			}
			if s.Output != nil {
				t.Errorf("%s %v: OmitOutput returned an output", q.Expr, q.Instance)
			}
			var want float64
			for j := 0; j < f.Output.Cols; j++ {
				for r := 0; r < f.Output.Rows; r++ {
					want += f.Output.At(r, j)
				}
			}
			if s.Rows != f.Output.Rows || s.Cols != f.Output.Cols {
				t.Errorf("%s %v: checksum path shape %dx%d, output %dx%d", q.Expr, q.Instance, s.Rows, s.Cols, f.Output.Rows, f.Output.Cols)
			}
			if math.Float64bits(s.Checksum) != math.Float64bits(want) || math.Float64bits(f.Checksum) != math.Float64bits(want) {
				t.Errorf("%s %v: checksums %v (omitted) and %v (default), column-order sum of the output %v", q.Expr, q.Instance, s.Checksum, f.Checksum, want)
			}
		}
	}
	checkSlabs(t, e)
}
