package exec

import (
	"runtime"
	"runtime/debug"
	"testing"

	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// TestReleaseReusesArena checks the pool round trip: a released plan's
// slab is what the next plan that fits takes, unzeroed, and a plan
// compiled from a reused slab computes what one from a fresh slab does.
func TestReleaseReusesArena(t *testing.T) {
	// A collection frees pooled slabs: hold it off, so the pool holds
	// what the test put there.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	arenas.mu.Lock()
	arenas.free, arenas.retained = nil, 0 // so the released slab is the only fit
	arenas.mu.Unlock()
	algs := expr.NewLstSq().Algorithms(expr.Instance{24, 16, 8})
	alg := &algs[0]
	p, err := CompileBatchPlan(alg, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.FillInputs(xrand.New(7))
	p.Execute()
	want := mat.New(p.Output(2).Rows, p.Output(2).Cols)
	mat.Copy(want, p.Output(2))
	slab := p.slab // held, so the collector cannot free it meanwhile
	p.Release()

	q, err := CompileBatchPlan(alg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Release()
	if &q.slab[0] != &slab[0] {
		t.Fatal("a plan of the same size did not reuse the released slab")
	}
	q.FillInputs(xrand.New(7))
	q.Execute()
	if !mat.Equal(q.Output(2), want) {
		t.Error("a plan on a reused slab computed a different result")
	}
}

// TestReleasedPlanPanics pins Release's contract: releasing twice is a
// no-op, and any use of a released plan panics instead of touching an
// arena another plan may own.
func TestReleasedPlanPanics(t *testing.T) {
	algs := expr.NewAATB().Algorithms(expr.Instance{8, 8, 8})
	p, err := CompileBatchPlan(&algs[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	p.Release()
	uses := map[string]func(){
		"FillInputs":   func() { p.FillInputs(xrand.New(1)) },
		"Execute":      func() { p.Execute() },
		"ExecuteTimed": func() { p.ExecuteTimed() },
		"Operand":      func() { p.Operand(0, "A") },
		"Output":       func() { p.Output(0) },
		"SetInput":     func() { p.SetInput(0, "A", mat.New(8, 8)) },
	}
	for name, use := range uses {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released plan did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestArenaPoolBounds checks the free list's caps: at most
// arenaPoolSlabs slabs and MaxRetainedArenaBytes bytes, the largest
// kept, and slabs over the byte cap never retained.
func TestArenaPoolBounds(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in TestReleaseReusesArena
	var ap arenaPool
	var held [][]float64 // keeps every slab reachable for the test
	for _, n := range []int{100, 5000, 300, 70000, 2000} {
		s := make([]float64, n)
		held = append(held, s)
		ap.put(s)
		if len(ap.free) > arenaPoolSlabs || ap.retained*8 > MaxRetainedArenaBytes {
			t.Fatalf("after putting %d floats: %d slabs, %d bytes retained", n, len(ap.free), ap.retained*8)
		}
	}
	if got := ap.get(3000); cap(got) != 5000 {
		t.Errorf("get(3000) took a slab of %d floats, want the best fit of 5000", cap(got))
	}
	if got := ap.get(3000); cap(got) != 70000 {
		t.Errorf("second get(3000) took a slab of %d floats, want 70000", cap(got))
	}
	if len(ap.free) != 0 || ap.retained != 0 {
		t.Errorf("pool not empty after taking every slab: %d slabs, %d floats", len(ap.free), ap.retained)
	}
	huge := make([]float64, MaxRetainedArenaBytes/8+1)
	ap.put(huge)
	if len(ap.free) != 0 {
		t.Error("a slab over the byte cap was retained")
	}
	runtime.KeepAlive(held)
}

// TestEvaluateAlgorithmMissingInputsReadZero pins that an input the
// caller leaves out reads as zero, even on a reused, unzeroed arena: with
// B = 0, A·Aᵀ·B is zero whatever A is.
func TestEvaluateAlgorithmMissingInputsReadZero(t *testing.T) {
	algs := expr.NewAATB().Algorithms(expr.Instance{12, 10, 6})
	rng := xrand.New(3)
	for i := range algs {
		sh := algs[i].Shapes["A"]
		got := EvaluateAlgorithm(&algs[i], map[string]*mat.Dense{"A": mat.NewRandom(sh.Rows, sh.Cols, rng)})
		if !mat.Equal(got, mat.New(got.Rows, got.Cols)) {
			t.Errorf("%s: output not zero with input B left out", algs[i].Name)
		}
	}
}
