package expr

import (
	"fmt"
	"testing"
	"testing/quick"

	"lamb/internal/ir"
	"lamb/internal/kernels"
	"lamb/internal/xrand"
)

// closedFormFlops is an independent copy of the paper's per-kernel FLOP
// formulas (the LAWN-41-style counts: GEMM 2mnk, SYRK (m+1)mk, SYMM
// 2m²n, POTRF m(m+1)(2m+1)/6 ≈ m³/3, TRSM m²n, AddSym m(m+1)/2,
// Tri2Full 0). It is deliberately re-stated here rather than calling
// kernels.Call.Flops, so the property test pins both the enumerator's
// lowered call dimensions and the kernel cost model against the
// literature formulas.
func closedFormFlops(c kernels.Call) (float64, error) {
	m, n, k := float64(c.M), float64(c.N), float64(c.K)
	switch c.Kind {
	case kernels.Gemm:
		return 2 * m * n * k, nil
	case kernels.Syrk:
		return (m + 1) * m * k, nil
	case kernels.Symm:
		return 2 * m * m * n, nil
	case kernels.Potrf:
		return m * (m + 1) * (2*m + 1) / 6, nil
	case kernels.Trsm:
		return m * m * n, nil
	case kernels.AddSym:
		return m * (m + 1) / 2, nil
	case kernels.Tri2Full:
		return 0, nil
	default:
		return 0, fmt.Errorf("no closed form for kind %v", c.Kind)
	}
}

// checkCallShapes verifies that a call's (M, N, K) agree with the
// shapes of the operands it reads — a stronger consistency property
// than Algorithm.Validate, which checks the output only.
func checkCallShapes(a *Algorithm, c kernels.Call) error {
	in := func(i int) Shape { return a.Shapes[c.In[i]] }
	switch c.Kind {
	case kernels.Gemm:
		ar, ac := in(0).Rows, in(0).Cols
		if c.TransA {
			ar, ac = ac, ar
		}
		br, bc := in(1).Rows, in(1).Cols
		if c.TransB {
			br, bc = bc, br
		}
		if ar != c.M || ac != c.K || br != c.K || bc != c.N {
			return fmt.Errorf("gemm %v reads %v and %v", c, in(0), in(1))
		}
	case kernels.Syrk:
		ar, ac := in(0).Rows, in(0).Cols
		if c.TransA {
			ar, ac = ac, ar
		}
		if ar != c.M || ac != c.K {
			return fmt.Errorf("syrk %v reads %v", c, in(0))
		}
	case kernels.Symm:
		if in(0).Rows != c.M || in(0).Cols != c.M || in(1).Rows != c.M || in(1).Cols != c.N {
			return fmt.Errorf("symm %v reads %v and %v", c, in(0), in(1))
		}
	case kernels.Trsm:
		if in(0).Rows != c.M || in(0).Cols != c.M || in(1).Rows != c.M || in(1).Cols != c.N {
			return fmt.Errorf("trsm %v reads %v and %v", c, in(0), in(1))
		}
	case kernels.Potrf, kernels.AddSym, kernels.Tri2Full:
		if in(0).Rows != c.M || in(0).Cols != c.M {
			return fmt.Errorf("%v reads %v", c, in(0))
		}
	}
	return nil
}

// TestEnumeratorFlopsMatchClosedFormsProperty cross-checks, on random
// instances of every registered expression, that each generated
// algorithm's FLOP total equals the sum of the closed-form per-kernel
// formulas over its lowered calls, and that every call's dimensions are
// consistent with the inferred operand shapes.
func TestEnumeratorFlopsMatchClosedFormsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		for _, name := range Names() {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			inst := make(Instance, e.Arity())
			for i := range inst {
				inst[i] = rng.IntRange(2, 300)
			}
			for _, a := range e.Algorithms(inst) {
				var want float64
				for _, c := range a.Calls {
					cf, err := closedFormFlops(c)
					if err != nil {
						t.Fatalf("%s %v: %v", name, inst, err)
					}
					want += cf
					if err := checkCallShapes(&a, c); err != nil {
						t.Fatalf("%s %v algorithm %d: %v", name, inst, a.Index, err)
					}
				}
				if a.Flops() != want {
					t.Logf("%s %v algorithm %d: flops %v != closed form %v", name, inst, a.Index, a.Flops(), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEnumeratorFlopsMatchClosedFormsGeneralChain extends the property
// to general chains outside the registry (3–6 terms).
func TestEnumeratorFlopsMatchClosedFormsGeneralChain(t *testing.T) {
	rng := xrand.New(99)
	for terms := 3; terms <= 6; terms++ {
		inst := make(Instance, terms+1)
		for i := range inst {
			inst[i] = rng.IntRange(2, 200)
		}
		for _, a := range mustChain(terms).Algorithms(inst) {
			var want float64
			for _, c := range a.Calls {
				cf, err := closedFormFlops(c)
				if err != nil {
					t.Fatal(err)
				}
				want += cf
				if err := checkCallShapes(&a, c); err != nil {
					t.Fatalf("chain-%d %v algorithm %d: %v", terms, inst, a.Index, err)
				}
			}
			if a.Flops() != want {
				t.Fatalf("chain-%d %v algorithm %d: flops %v != closed form %v", terms, inst, a.Index, a.Flops(), want)
			}
		}
	}
}

// TestNumAlgorithmsMatchesBoundSet pins the set size the engine trusts
// when it checks feedback, restored and merged outcomes without binding:
// for every registered expression and for chains of 2 to 6 terms,
// NumAlgorithms equals the length of the set Algorithms binds, on
// random paper-box instances. Each set is enumerated once per process:
// a second lookup or bind enumerates nothing.
func TestNumAlgorithmsMatchesBoundSet(t *testing.T) {
	var xs []Expression
	for _, name := range Names() {
		x, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	for n := 2; n <= 6; n++ {
		xs = append(xs, mustChain(n))
	}
	rng := xrand.New(0x5e7)
	for _, x := range xs {
		box := PaperBox(x.Arity())
		for trial := 0; trial < 20; trial++ {
			inst := box.Sample(rng)
			if got, want := x.NumAlgorithms(), len(x.Algorithms(inst)); got != want {
				t.Fatalf("%s%v: NumAlgorithms %d, bound set has %d", x.Name(), inst, got, want)
			}
		}
	}
	enums := ir.Enumerations()
	for _, name := range Names() {
		x, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		x.Algorithms(PaperBox(x.Arity()).Sample(rng))
	}
	for n := 2; n <= 6; n++ {
		mustChain(n).Algorithms(PaperBox(n + 1).Sample(rng))
	}
	if got := ir.Enumerations(); got != enums {
		t.Fatalf("second lookups enumerated %d sets", got-enums)
	}
}
