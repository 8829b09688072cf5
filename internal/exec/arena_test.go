package exec

import (
	"testing"

	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// TestReleaseReusesArena checks the slab round trip: a released plan's
// arena is what the next plan compiled into the slab takes, unzeroed,
// and a plan on the reused arena computes what one on a fresh arena
// does.
func TestReleaseReusesArena(t *testing.T) {
	algs := expr.NewLstSq().Algorithms(expr.Instance{24, 16, 8})
	lay, err := NewLayout(&algs[0])
	if err != nil {
		t.Fatal(err)
	}
	lays := []*Layout{lay, lay, lay}
	fresh, err := CompileBatchPlanMixed(repeated(&algs[0], 3))
	if err != nil {
		t.Fatal(err)
	}
	fresh.FillInputs(xrand.New(7))
	fresh.Execute()

	var slab Slab
	p, err := slab.Compile(lays)
	if err != nil {
		t.Fatal(err)
	}
	p.FillInputs(xrand.New(3)) // leaves other values in the arena
	p.Execute()
	first := &p.arena[0]
	p.Release()
	if slab.Lent() {
		t.Fatal("the slab is still lent after Release")
	}
	q, err := slab.Compile(lays)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Release()
	if &q.arena[0] != first {
		t.Fatal("a plan of the same size did not reuse the released arena")
	}
	q.FillInputs(xrand.New(7))
	q.Execute()
	for i := 0; i < 3; i++ {
		if !mat.Equal(q.Output(i), fresh.Output(i)) {
			t.Errorf("instance %d: a plan on a reused arena computed a different result", i)
		}
	}
}

// TestReleasedPlanPanics pins Release's contract: releasing twice is a
// no-op, and any use of a released plan panics instead of touching an
// arena another plan may own.
func TestReleasedPlanPanics(t *testing.T) {
	algs := expr.NewAATB().Algorithms(expr.Instance{8, 8, 8})
	p, err := CompileBatchPlanMixed(repeated(&algs[0], 2))
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	p.Release()
	single, err := CompilePlan(&algs[0])
	if err != nil {
		t.Fatal(err)
	}
	single.Release()
	uses := map[string]func(){
		"FillInputs":   func() { p.FillInputs(xrand.New(1)) },
		"Execute":      func() { p.Execute() },
		"ExecuteTimed": func() { p.ExecuteTimed() },
		"Operand":      func() { p.Operand(0, "A") },
		"Output":       func() { p.Output(0) },
		"SetInput":     func() { single.SetInput("A", mat.New(8, 8)) },
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

// TestSlabBounds checks how a slab holds its buffer: it grows to the
// largest plan compiled into it and keeps that buffer for smaller ones,
// never keeps one over MaxRetainedArenaBytes, and refuses a second plan
// while the first is unreleased.
func TestSlabBounds(t *testing.T) {
	layOf := func(inst expr.Instance) *Layout {
		algs := expr.NewAATB().Algorithms(inst)
		lay, err := NewLayout(&algs[0])
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	var slab Slab
	compile := func(lays ...*Layout) *BatchPlan {
		t.Helper()
		p, err := slab.Compile(lays)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small, large := layOf(expr.Instance{8, 8, 8}), layOf(expr.Instance{40, 40, 40})
	p := compile(small, small)
	smallBytes := 8 * cap(slab.buf)
	p.Release()
	p = compile(large, large)
	largeBytes := 8 * cap(slab.buf)
	if largeBytes <= smallBytes || largeBytes < 8*p.ArenaLen() {
		t.Fatalf("slab of %d bytes after a %d-float plan (%d bytes before)", largeBytes, p.ArenaLen(), smallBytes)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("compiling into a lent slab did not panic")
			}
		}()
		compile(small)
	}()
	p.Release()
	compile(small).Release()
	if 8*cap(slab.buf) != largeBytes {
		t.Errorf("slab shrank from %d to %d bytes for a smaller plan", largeBytes, 8*cap(slab.buf))
	}

	huge := make([]*Layout, MaxRetainedArenaBytes/(8*slabStride(large.arenaLen))+1)
	for i := range huge {
		huge[i] = large
	}
	p = compile(huge...)
	if p.ArenaLen()*8 <= MaxRetainedArenaBytes {
		t.Fatalf("plan of %d bytes is not over the cap", p.ArenaLen()*8)
	}
	p.Release()
	if 8*cap(slab.buf) != largeBytes {
		t.Errorf("slab kept a %d-byte buffer over the cap", 8*cap(slab.buf))
	}
}

// TestEvaluateAlgorithmMissingInputsReadZero pins that an input the
// caller leaves out reads as zero, even on an unzeroed arena (the
// arenapoison build NaN-fills it): with B = 0, A·Aᵀ·B is zero whatever
// A is.
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
