// Package expr defines the linear algebra expressions the paper studies
// and generates their mathematically equivalent algorithm sets.
//
// Every expression is a Generic over an IR definition in lamb/internal/ir:
// it defines an operand tree once, and the generic enumerator derives the
// full algorithm set — all multiplication orders, symmetry exploitation
// (SYRK/SYMM with Tri2Full insertion), SPD-inverse lowering, and
// common-subexpression sharing — lowered to kernels.Call sequences. The
// registry holds the definitions of the built-in expressions: the
// paper's AAᵀB with its 5 algorithms over GEMM, SYRK, and SYMM
// (Figure 5), its transposed mirror AᵀAB, the regularised
// least-squares pipeline, and two richer expressions (AAᵀBC and GLS)
// probing the paper's §5 conjecture. NewChain builds the n-term matrix
// chain the same way, from one definition per term count; its 4-term
// instance is the paper's ABCD with its 6 GEMM-only algorithms
// (Figure 3), registered as "chain". The classic dynamic-programming
// minimum-FLOPs baseline completes the package.
//
// The generated sets for the original three expressions are pinned by
// golden tests to the pre-IR hand-coded sets, byte for byte.
package expr

import (
	"fmt"

	"lamb/internal/ir"
)

// Core modelling types, defined in lamb/internal/ir and aliased here so
// the rest of the repository keeps importing them from expr.
type (
	// Instance assigns concrete sizes to an expression's dimensions
	// (d0, d1, ... in the paper's notation).
	Instance = ir.Instance
	// Shape is the dimensions of one operand.
	Shape = ir.Shape
	// Algorithm is one mathematically equivalent evaluation of an
	// expression for a concrete instance.
	Algorithm = ir.Algorithm
)

// Expression is a family of problem instances together with its set of
// mathematically equivalent algorithms.
type Expression interface {
	// Name identifies the expression (e.g. "chain-ABCD", "AATB").
	Name() string
	// Arity is the number of dimension parameters of an instance.
	Arity() int
	// Algorithms enumerates the algorithm set for the given instance.
	// The returned slice is freshly allocated and ordered by the paper's
	// algorithm numbering where one exists.
	Algorithms(inst Instance) []Algorithm
	// Validate reports whether inst is a well-formed instance.
	Validate(inst Instance) error
	// NumAlgorithms is the size of the algorithm set, which does not
	// depend on the instance.
	NumAlgorithms() int
}

func validateDims(name string, arity int, inst Instance) error {
	if len(inst) != arity {
		return fmt.Errorf("expr: %s instance %v has %d dims, want %d", name, inst, len(inst), arity)
	}
	for i, d := range inst {
		if d <= 0 {
			return fmt.Errorf("expr: %s instance %v has non-positive d%d", name, inst, i)
		}
	}
	return nil
}

// Generic is an Expression generated from an IR definition: its
// algorithm set is whatever the enumerator derives from the tree. The
// built-in expressions are Generic values built from the registry's
// definitions; external callers define new ones through the public
// builder API in package lamb.
//
// Construction enumerates the symbolic algorithm set once (the
// enumerator is purely structural); Algorithms is then a cheap bind of
// the cached set against the requested instance.
type Generic struct {
	set *ir.SymbolicSet
	// builtin marks the registry's expressions, whose instance errors
	// carry this package's "expr:" prefix rather than the IR's "ir:".
	builtin bool
}

// NewGeneric validates the definition, enumerates its symbolic
// algorithm set, and wraps it as an Expression. Unsupported fragments
// surface here, not mid-experiment.
func NewGeneric(def *ir.Def) (Generic, error) {
	set, err := ir.EnumerateSymbolic(def)
	if err != nil {
		return Generic{}, err
	}
	return Generic{set: set}, nil
}

// MustGeneric is NewGeneric panicking on error; the registry uses it
// with the built-in definitions, which are tested to be valid.
func MustGeneric(def *ir.Def) Generic {
	g, err := NewGeneric(def)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Expression.
func (g Generic) Name() string { return g.set.Def().Name }

// Arity implements Expression.
func (g Generic) Arity() int { return g.set.Def().Arity }

// Def exposes the underlying IR definition.
func (g Generic) Def() *ir.Def { return g.set.Def() }

// Symbolic exposes the cached symbolic algorithm set.
func (g Generic) Symbolic() *ir.SymbolicSet { return g.set }

// Validate implements Expression.
func (g Generic) Validate(inst Instance) error {
	if g.builtin {
		return validateDims(g.Name(), g.Arity(), inst)
	}
	return g.set.Def().ValidateInstance(inst)
}

// Algorithms implements Expression: a bind of the cached symbolic set,
// in the enumerator's order (the paper's numbering where one exists).
// It panics with Validate's error on a malformed instance.
func (g Generic) Algorithms(inst Instance) []Algorithm {
	if err := g.Validate(inst); err != nil {
		panic(err)
	}
	return g.set.MustBind(inst)
}

// NumAlgorithms implements Expression: the length of the enumerated
// set, counted once at construction.
func (g Generic) NumAlgorithms() int { return g.set.Len() }
