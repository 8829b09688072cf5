package ir

import (
	"reflect"
	"strings"
	"testing"

	"lamb/internal/kernels"
)

func mustEnum(t *testing.T, def *Def, inst Instance) []Algorithm {
	t.Helper()
	algs, err := enumerate(def, inst)
	if err != nil {
		t.Fatalf("enumerate %s: %v", def.Name, err)
	}
	for _, a := range algs {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s algorithm %d: %v", def.Name, a.Index, err)
		}
	}
	return algs
}

// enumerate generates the definition's algorithm set for one instance:
// a symbolic enumeration followed by a bind.
func enumerate(def *Def, inst Instance) ([]Algorithm, error) {
	set, err := EnumerateSymbolic(def)
	if err != nil {
		return nil, err
	}
	return set.Bind(inst)
}

func wantErr(t *testing.T, def *Def, inst Instance, frag string) {
	t.Helper()
	if err := def.Validate(); err != nil {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("%s: error %q does not mention %q", def.Name, err, frag)
		}
		return
	}
	_, err := enumerate(def, inst)
	if err == nil {
		t.Fatalf("%s: expected error mentioning %q, got none", def.Name, frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("%s: error %q does not mention %q", def.Name, err, frag)
	}
}

func TestTransposeCancelsAndSymmetricTransposeIsIdentity(t *testing.T) {
	a := NewOperand("A", 0, 1)
	if T(T(a)) != Node(a) {
		t.Fatal("double transpose should cancel")
	}
	// Sᵀ = S for a symmetric operand: the product S·B and Sᵀ·B generate
	// identical sets.
	s := NewSymmetric("S", 0)
	b := NewOperand("B", 0, 1)
	inst := Instance{7, 9}
	plain := mustEnum(t, &Def{Name: "sb", Arity: 2, Root: Mul(s, b)}, inst)
	trans := mustEnum(t, &Def{Name: "sb", Arity: 2, Root: Mul(&Transpose{X: s}, b)}, inst)
	if !reflect.DeepEqual(plain, trans) {
		t.Fatal("Sᵀ·B should enumerate identically to S·B")
	}
}

func TestSymmetricInputProductOffersSymmAndGemm(t *testing.T) {
	s := NewSymmetric("S", 0)
	b := NewOperand("B", 0, 1)
	algs := mustEnum(t, &Def{Name: "sb", Arity: 2, Root: Mul(s, b)}, Instance{6, 11})
	if len(algs) != 2 {
		t.Fatalf("S·B generated %d algorithms, want 2 (symm, gemm)", len(algs))
	}
	if algs[0].Calls[0].Kind != kernels.Symm || algs[1].Calls[0].Kind != kernels.Gemm {
		t.Fatalf("S·B kernels: %v, %v (want symm before gemm)", algs[0].Calls[0].Kind, algs[1].Calls[0].Kind)
	}
	if algs[0].Name != "X:=symm(S·B)" || algs[1].Name != "X:=gemm(S·B)" {
		t.Fatalf("names %q, %q", algs[0].Name, algs[1].Name)
	}
}

func TestTransGramLowersToSyrkTAndGemm(t *testing.T) {
	// Aᵀ·A·B: the transposed-SYRK rewrite widens the fragment so the
	// Gram product offers SYRK (trans='T', triangular result) before
	// GEMM, mirroring the A·Aᵀ case — five algorithms, the exact mirror
	// of the paper's AAᵀB set.
	a := NewOperand("A", 0, 1)
	b := NewOperand("B", 1, 2)
	algs := mustEnum(t, &Def{Name: "atab", Arity: 3, Root: Mul(T(a), a, b)}, Instance{5, 8, 13})
	wantNames := []string{
		"M1:=syrk(Aᵀ·A); X:=symm(M1·B)",
		"M1:=syrk(Aᵀ·A); tri2full(M1); X:=gemm(M1·B)",
		"M1:=gemm(Aᵀ·A); X:=symm(M1·B)",
		"M1:=gemm(Aᵀ·A); X:=gemm(M1·B)",
		"M1:=gemm(A·B); X:=gemm(Aᵀ·M1)",
	}
	if len(algs) != len(wantNames) {
		t.Fatalf("AᵀAB generated %d algorithms, want %d", len(algs), len(wantNames))
	}
	for i, want := range wantNames {
		if algs[i].Name != want {
			t.Errorf("algorithm %d: %q, want %q", i+1, algs[i].Name, want)
		}
	}
	// The transposed SYRK reads A (5×8) and writes the 8×8 triangle.
	if c := algs[0].Calls[0]; c.Kind != kernels.Syrk || !c.TransA || c.M != 8 || c.N != 8 || c.K != 5 {
		t.Fatalf("syrk-T call %+v", c)
	}
	// Its GEMM fallback keeps the transposed-left read.
	if c := algs[2].Calls[0]; c.Kind != kernels.Gemm || !c.TransA || c.TransB || c.M != 8 || c.N != 8 || c.K != 5 {
		t.Fatalf("AᵀA gemm call %+v", c)
	}
	// SYRK and GEMM variants tie exactly like the paper's AAᵀB pairs do
	// not: SYRK costs (m+1)·m·k vs GEMM's 2·m·m·k.
	if algs[0].Flops() >= algs[2].Flops() {
		t.Fatalf("syrk-T flops %v not below gemm flops %v", algs[0].Flops(), algs[2].Flops())
	}
}

func TestCommonSubexpressionSharedFactorComputedOnce(t *testing.T) {
	// X := (A·B)·(A·B): the shared factor node is computed once.
	a := NewOperand("A", 0, 1)
	b := NewOperand("B", 1, 0)
	p := Mul(a, b)
	algs := mustEnum(t, &Def{Name: "square", Arity: 2, Root: MulFixed(p, p)}, Instance{6, 9})
	if len(algs) != 1 {
		t.Fatalf("generated %d algorithms, want 1", len(algs))
	}
	alg := algs[0]
	if alg.Name != "M1:=gemm(A·B); X:=gemm(M1·M1)" {
		t.Fatalf("name %q", alg.Name)
	}
	if len(alg.Calls) != 2 {
		t.Fatalf("shared subexpression recomputed: %d calls", len(alg.Calls))
	}
	want := 2.0*6*9*6 + 2.0*6*6*6
	if alg.Flops() != want {
		t.Fatalf("flops %v, want %v", alg.Flops(), want)
	}
}

func TestSumFeedingFullStorageKernelInsertsTri2Full(t *testing.T) {
	// Regression: AddSym accumulates the lower triangle only, so a Gram
	// sum consumed by a full-storage GEMM must be mirrored first — even
	// when the Gram product itself used full-storage GEMM (whose upper
	// triangle is stale after the accumulation).
	a := NewOperand("A", 0, 1)
	b := NewOperand("B", 0, 2)
	r := NewSPD("R", 0)
	root := MulFixed(Add("S", Mul(a, T(a)), r), b)
	algs := mustEnum(t, &Def{Name: "sumgemm", Arity: 3, Root: root}, Instance{5, 6, 7})
	if len(algs) != 4 {
		t.Fatalf("generated %d algorithms, want 4", len(algs))
	}
	for _, alg := range algs {
		if strings.Contains(alg.Name, "gemm(S·B)") && !strings.Contains(alg.Name, "tri2full(S)") {
			t.Fatalf("algorithm %q feeds the triangle-accumulated sum to GEMM without Tri2Full", alg.Name)
		}
	}
}

func TestSolveRequiresNamedSPDPipeline(t *testing.T) {
	a := NewOperand("A", 0, 1)
	b := NewOperand("B", 1, 2)
	r := NewSPD("R", 0)
	inst := Instance{4, 5, 6}

	// Inverse of a raw input would factor it in place.
	wantErr(t, &Def{Name: "t", Arity: 3, Root: Solve(r, Mul(a, b))}, inst, "factor it in place")
	// Inverse of a non-SPD pipeline has no Cholesky lowering.
	sym := NewSymmetric("W", 0)
	wantErr(t, &Def{Name: "t", Arity: 3,
		Root: Solve(Add("S", Mul(a, T(a)), sym), Mul(a, b))}, inst, "SPD")
	// A leaf right-hand side would be overwritten by the in-place solve.
	wantErr(t, &Def{Name: "t", Arity: 3,
		Root: Solve(Add("S", Mul(a, T(a)), r), NewOperand("B2", 0, 2))}, inst, "right-hand side")
	// Solve form must be fixed.
	wantErr(t, &Def{Name: "t", Arity: 3,
		Root: Mul(Inv(Add("S", Mul(a, T(a)), r)), Mul(a, b))}, inst, "fixed product")
}

func TestUnsupportedFragmentsErrorCleanly(t *testing.T) {
	a := NewOperand("A", 0, 1)
	b := NewOperand("B", 1, 0)
	inst2 := Instance{4, 5}

	// Inverse outside solve position.
	wantErr(t, &Def{Name: "t", Arity: 2, Root: Inv(Mul(a, b))}, inst2, "solve position")
	wantErr(t, &Def{Name: "t", Arity: 2, Root: Mul(a, Inv(Mul(b, a)), b)}, inst2, "left factor")
	// Transpose of a computed subexpression.
	wantErr(t, &Def{Name: "t", Arity: 2, Root: MulFixed(&Transpose{X: Mul(a, b)}, a)}, inst2, "supported fragment")
	// Sums need a name, a leaf, and a computed term.
	r := NewSPD("R", 0)
	wantErr(t, &Def{Name: "t", Arity: 2, Root: Solve(Add("", Mul(a, T(a)), r), Mul(a, b))}, inst2, "Name")
	wantErr(t, &Def{Name: "t", Arity: 2, Root: Solve(Add("S", r, NewSPD("Q", 0)), Mul(a, b))}, inst2, "computed term")
	wantErr(t, &Def{Name: "t", Arity: 2, Root: Solve(Add("S", Mul(a, T(a)), Mul(b, T(b))), Mul(a, b))}, inst2, "leaf term")
	// Computed factors in an associative product.
	wantErr(t, &Def{Name: "t", Arity: 2, Root: Mul(a, Mul(b, a))}, inst2, "fixed product")
	// Triangular input feeding a full-storage kernel.
	l := &Operand{ID: "L", RowDim: 0, ColDim: 0, Props: LowerTri}
	wantErr(t, &Def{Name: "t", Arity: 2, Root: Mul(l, a)}, inst2, "triangle")
	// Dimension mismatches surface per instance.
	wantErr(t, &Def{Name: "t", Arity: 2, Root: Mul(a, a)}, inst2, "mismatched inner dimensions")
}

func TestDefValidateRejectsBadStructure(t *testing.T) {
	a := NewOperand("A", 0, 1)
	cases := []struct {
		def  *Def
		frag string
	}{
		{&Def{Name: "", Arity: 2, Root: Mul(a, a)}, "no name"},
		{&Def{Name: "t", Arity: 0, Root: Mul(a, a)}, "arity"},
		{&Def{Name: "t", Arity: 2, Root: nil}, "nil"},
		{&Def{Name: "t", Arity: 1, Root: Mul(a)}, "outside arity"},
		{&Def{Name: "t", Arity: 2, Root: Mul(NewOperand("X", 0, 1))}, "output"},
		{&Def{Name: "t", Arity: 2, Root: Mul(NewOperand("M1", 0, 1))}, "temporary"},
		{&Def{Name: "t", Arity: 2, Root: Mul(NewOperand("", 0, 1))}, "unnamed"},
		{&Def{Name: "t", Arity: 2, Root: Mul(&Operand{ID: "S", RowDim: 0, ColDim: 1, Props: Symmetric})}, "square"},
		{&Def{Name: "t", Arity: 2,
			Root: Mul(NewOperand("A", 0, 1), NewOperand("A", 1, 0))}, "redefined"},
		{&Def{Name: "t", Arity: 2,
			Root: &Product{Factors: []Node{a}, Name: "A", Fixed: true}}, "collides with an input"},
	}
	for _, c := range cases {
		if err := c.def.Validate(); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Validate(%s) = %v, want error mentioning %q", c.def.Name, err, c.frag)
		}
	}
}

func TestValidateInstance(t *testing.T) {
	def := &Def{Name: "t", Arity: 2, Root: Mul(NewOperand("A", 0, 1), NewOperand("B", 1, 0))}
	if err := def.ValidateInstance(Instance{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := def.ValidateInstance(Instance{3}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := def.ValidateInstance(Instance{3, 0}); err == nil {
		t.Fatal("non-positive dimension accepted")
	}
}

func TestEnumerateIsDeterministic(t *testing.T) {
	a := NewOperand("A", 0, 1)
	b := NewOperand("B", 0, 2)
	def := &Def{Name: "aatb", Arity: 3, Root: Mul(a, T(a), b)}
	inst := Instance{30, 40, 50}
	first := mustEnum(t, def, inst)
	second := mustEnum(t, def, inst)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("enumeration is not deterministic")
	}
}

func TestBareStyleNaming(t *testing.T) {
	a := NewOperand("A", 0, 1)
	b := NewOperand("B", 1, 0)
	def := &Def{Name: "ab", Arity: 2, Root: Mul(a, b), Style: StyleBare}
	algs := mustEnum(t, def, Instance{3, 4})
	if algs[0].Name != "X:=A·B" {
		t.Fatalf("bare name %q", algs[0].Name)
	}
}

func TestPropsHas(t *testing.T) {
	p := SPD | Symmetric
	if !p.Has(Symmetric) || !p.Has(SPD) || p.Has(LowerTri) {
		t.Fatalf("props %b", p)
	}
}
