package expr

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"lamb/internal/ir"
)

// registry maps CLI/API names to the built-in expressions. The paper's
// 4-term chain registers as "chain"; NewChain returns the chains of the
// other term counts, built by the same definition. Each entry converts
// its Generic to an Expression once, so Lookup hands out the stored
// interface value without allocating.
var registry = map[string]func() Expression{
	"chain": sync.OnceValue(func() Expression { return NewChainABCD() }),
	"aatb":  sync.OnceValue(func() Expression { return NewAATB() }),
	"atab":  sync.OnceValue(func() Expression { return NewATAB() }),
	"lstsq": sync.OnceValue(func() Expression { return NewLstSq() }),
	"aatbc": sync.OnceValue(func() Expression { return NewAATBC() }),
	"gls":   sync.OnceValue(func() Expression { return NewGLS() }),
}

// builtin returns the constructor of a built-in expression: the first
// call enumerates def into a Generic and every later call returns that
// same value, so each built-in (and each chain length) is enumerated at
// most once per process.
func builtin(def func() *ir.Def) func() Generic {
	return sync.OnceValue(func() Generic {
		g := MustGeneric(def())
		g.builtin = true
		return g
	})
}

// The built-in definitions, one per fixed-shape expression.
var (
	aatb = builtin(func() *ir.Def {
		a := ir.NewOperand("A", 0, 1)
		b := ir.NewOperand("B", 0, 2)
		return &ir.Def{Name: "AATB", Arity: 3, Root: ir.Mul(a, ir.T(a), b)}
	})
	atab = builtin(func() *ir.Def {
		a := ir.NewOperand("A", 0, 1)
		b := ir.NewOperand("B", 1, 2)
		return &ir.Def{Name: "ATAB", Arity: 3, Root: ir.Mul(ir.T(a), a, b)}
	})
	aatbc = builtin(func() *ir.Def {
		a := ir.NewOperand("A", 0, 1)
		b := ir.NewOperand("B", 0, 2)
		c := ir.NewOperand("C", 2, 3)
		return &ir.Def{Name: "aatbc", Arity: 4, Root: ir.Mul(a, ir.T(a), b, c)}
	})
	lstsq = builtin(func() *ir.Def {
		a := ir.NewOperand("A", 0, 1)
		b := ir.NewOperand("B", 1, 2)
		gram := ir.Add("S", ir.Mul(a, ir.T(a)), ir.NewSPD("R", 0))
		return &ir.Def{Name: "lstsq", Arity: 3, Root: ir.Solve(gram, ir.Mul(a, b))}
	})
	gls = builtin(func() *ir.Def {
		a := ir.NewOperand("A", 0, 1)
		b := ir.NewOperand("B", 1, 2)
		c := ir.NewOperand("C", 2, 3)
		gram := ir.Add("S", ir.Mul(a, ir.T(a)), ir.NewSPD("R", 0))
		return &ir.Def{Name: "gls", Arity: 4, Root: ir.Solve(gram, ir.Mul(a, b, c))}
	})
)

// NewAATB returns the expression X := A·Aᵀ·B with A ∈ ℝ^{d0×d1} and
// B ∈ ℝ^{d0×d2} (paper §3.2.2); an instance is (d0, d1, d2). The
// enumerator derives the paper's five algorithms (Figure 5) from the
// associative product: computing M := A·Aᵀ first offers SYRK or GEMM
// and then SYMM or GEMM (with a triangle-to-full copy when SYRK feeds
// GEMM); computing Aᵀ·B first leaves GEMM only:
//
//	1: M1 := syrk(A·Aᵀ);             X := symm(M1·B)
//	2: M1 := syrk(A·Aᵀ); tri2full;   X := gemm(M1·B)
//	3: M1 := gemm(A·Aᵀ);             X := symm(M1·B)
//	4: M1 := gemm(A·Aᵀ);             X := gemm(M1·B)
//	5: M1 := gemm(Aᵀ·B);             X := gemm(A·M1)
func NewAATB() Generic { return aatb() }

// NewATAB returns the transposed-Gram expression X := Aᵀ·A·B with
// A ∈ ℝ^{d0×d1} and B ∈ ℝ^{d1×d2}; an instance is (d0, d1, d2). It is
// the normal-equations mirror of AAᵀB, enabled by the transposed-SYRK
// rewrite (Aᵀ·A → dsyrk trans='T'), and its five algorithms mirror
// Figure 5, the fifth being M1 := gemm(A·B); X := gemm(Aᵀ·M1).
func NewATAB() Generic { return atab() }

// NewAATBC returns the Gram-chain hybrid X := A·Aᵀ·B·C with
// A ∈ ℝ^{d0×d1}, B ∈ ℝ^{d0×d2} and C ∈ ℝ^{d2×d3}; an instance is
// (d0, d1, d2, d3). It is the smallest expression combining the paper's
// two case studies, a Gram product with symmetry rewrites inside a
// chain with free multiplication order, and a probe of the §5
// conjecture: its fifteen algorithms are every contraction order ×
// SYRK/GEMM for the Gram product × SYMM/GEMM (with Tri2Full insertion)
// wherever the symmetric intermediate is consumed.
func NewAATBC() Generic { return aatbc() }

// NewLstSq returns the regularised least-squares (normal equations)
// expression X := (A·Aᵀ + R)⁻¹·A·B with A ∈ ℝ^{d0×d1}, B ∈ ℝ^{d1×d2} and
// R ∈ ℝ^{d0×d0} symmetric positive definite; an instance is
// (d0, d1, d2). It adds LAPACK-level kernels to the paper's study (§5:
// richer expressions, more anomalies): its four algorithms are SYRK or
// GEMM for the Gram product S := A·Aᵀ + R, times computing the
// right-hand side A·B before or after the Cholesky-and-two-solves
// pipeline (identical FLOPs, different inter-kernel cache behaviour).
// S is factored in place and the right-hand side is solved in place in
// X. Algorithms 1–2 (SYRK) tie for the minimum FLOP count.
func NewLstSq() Generic { return lstsq() }

// NewGLS returns the generalized-least-squares-style solve with a
// chained right-hand side, X := (A·Aᵀ + R)⁻¹·A·B·C, with A ∈ ℝ^{d0×d1},
// B ∈ ℝ^{d1×d2}, C ∈ ℝ^{d2×d3} and R ∈ ℝ^{d0×d0} symmetric positive
// definite; an instance is (d0, d1, d2, d3). Its eight algorithms
// multiply three choices: SYRK or GEMM for the Gram product, both
// parenthesisations of A·B·C, and both orderings of the factorisation
// and right-hand-side pipelines. The ordering never changes FLOPs, so
// the set has four tie groups of two.
func NewGLS() Generic { return gls() }

// Names returns the registered expression names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the built-in expression registered under name
// (case-insensitive). It is the one place a name becomes an
// Expression: the engine, its feedback and its snapshot restores all
// resolve through it.
func Lookup(name string) (Expression, error) {
	if mk, ok := registry[strings.ToLower(name)]; ok {
		return mk(), nil
	}
	return nil, fmt.Errorf("expr: unknown expression %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}
