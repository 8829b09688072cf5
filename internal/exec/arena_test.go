package exec

import (
	"fmt"
	"testing"

	"lamb/internal/blas"

	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// TestReleaseReusesArena checks the slab round trip: a released plan's
// arena and headers are what the next plan compiled into the slab
// takes, unzeroed, and a plan on the reused arena computes what one on
// a fresh arena does.
func TestReleaseReusesArena(t *testing.T) {
	algs := expr.NewLstSq().Algorithms(expr.Instance{24, 16, 8})
	lay, err := NewLayout(&algs[0])
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := CompilePlan(&algs[0])
	if err != nil {
		t.Fatal(err)
	}
	fresh.FillInputs(xrand.New(7))
	fresh.Execute()

	var slab Slab
	p := slab.Compile(lay)
	p.FillInputs(xrand.New(3)) // leaves other values in the arena
	p.Execute()
	first, ops := &p.arena[0], &p.ops[0]
	p.Release()
	if slab.Lent() {
		t.Fatal("the slab is still lent after Release")
	}
	q := slab.Compile(lay)
	defer q.Release()
	if &q.arena[0] != first || &q.ops[0] != ops {
		t.Fatal("a plan of the same size did not reuse the released arena and headers")
	}
	q.FillInputs(xrand.New(7))
	q.Execute()
	if !mat.Equal(q.Output(), fresh.Output()) {
		t.Error("a plan on a reused arena computed a different result")
	}
}

// TestReleasedPlanPanics pins Release's contract: releasing twice is a
// no-op, and any use of a released plan, its own arena's or a slab's,
// panics instead of touching an arena another plan may own.
func TestReleasedPlanPanics(t *testing.T) {
	algs := expr.NewAATB().Algorithms(expr.Instance{8, 8, 8})
	lay, err := NewLayout(&algs[0])
	if err != nil {
		t.Fatal(err)
	}
	own, err := CompilePlan(&algs[0])
	if err != nil {
		t.Fatal(err)
	}
	var slab Slab
	for name, p := range map[string]*Plan{"own": own, "slab": slab.Compile(lay)} {
		p.Release()
		p.Release()
		uses := map[string]func(){
			"FillInputs":   func() { p.FillInputs(xrand.New(1)) },
			"Execute":      func() { p.Execute() },
			"ExecuteTimed": func() { p.ExecuteTimed() },
			"Operand":      func() { p.Operand("A") },
			"Output":       func() { p.Output() },
			"SetInput":     func() { p.SetInput("A", mat.New(8, 8)) },
		}
		for use, f := range uses {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a released %s plan did not panic", use, name)
					}
				}()
				f()
			}()
		}
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
	small, large := layOf(expr.Instance{8, 8, 8}), layOf(expr.Instance{40, 40, 40})
	p := slab.Compile(small)
	smallBytes := 8 * cap(slab.buf)
	p.Release()
	p = slab.Compile(large)
	largeBytes := 8 * cap(slab.buf)
	if largeBytes <= smallBytes || largeBytes < 8*len(p.arena) {
		t.Fatalf("slab of %d bytes after a %d-float plan (%d bytes before)", largeBytes, len(p.arena), smallBytes)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("compiling into a lent slab did not panic")
			}
		}()
		slab.Compile(small)
	}()
	if p.Output().Rows != 40 {
		t.Error("the refused compile changed the lent plan")
	}
	p.Release()
	slab.Compile(small).Release()
	if 8*cap(slab.buf) != largeBytes {
		t.Errorf("slab shrank from %d to %d bytes for a smaller plan", largeBytes, 8*cap(slab.buf))
	}

	p = slab.Compile(layOf(expr.Instance{1200, 1200, 1200}))
	if len(p.arena)*8 <= MaxRetainedArenaBytes {
		t.Fatalf("plan of %d bytes is not over the cap", len(p.arena)*8)
	}
	p.Release()
	if 8*cap(slab.buf) != largeBytes {
		t.Errorf("slab kept a %d-byte buffer over the cap", 8*cap(slab.buf))
	}
}

// TestSlabChunkZeroAllocs extends the zero-alloc guarantee to the
// compute path: once a slab has compiled a plan as large, compiling a
// chunk of one into it, filling it from a fresh stream, executing it
// and releasing it perform zero heap allocations, for every algorithm
// of three expressions at worker caps 1 and 2.
func TestSlabChunkZeroAllocs(t *testing.T) {
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(1))
	var slab Slab
	type allocCase struct {
		label string
		rep   func()
	}
	var cases []allocCase
	for _, tc := range []struct {
		name string
		x    expr.Expression
		inst expr.Instance
	}{
		{"chain", expr.NewChainABCD(), expr.Instance{24, 16, 20, 12, 8}},
		{"aatb", expr.NewAATB(), expr.Instance{24, 16, 8}},
		{"lstsq", expr.NewLstSq(), expr.Instance{32, 16, 8}},
	} {
		algs := tc.x.Algorithms(tc.inst)
		for i := range algs {
			lay, err := NewLayout(&algs[i])
			if err != nil {
				t.Fatalf("%s algorithm %d: NewLayout: %v", tc.name, algs[i].Index, err)
			}
			cases = append(cases, allocCase{
				fmt.Sprintf("%s algorithm %d (%s)", tc.name, algs[i].Index, algs[i].Name),
				func() {
					p := slab.Compile(lay)
					p.FillInputs(xrand.New(0x5ab5))
					p.Execute()
					p.Release()
				},
			})
		}
	}
	for _, workers := range []int{1, 2} {
		blas.SetMaxWorkers(workers)
		for _, c := range cases {
			c.rep() // grow the slab, warm the pools
		}
		for _, c := range cases {
			if allocs := testing.AllocsPerRun(10, c.rep); allocs != 0 {
				t.Errorf("workers=%d %s: %v allocs per compile, fill, execution and release, want 0", workers, c.label, allocs)
			}
		}
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
