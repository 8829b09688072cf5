package expr

import (
	"fmt"
	"sync"

	"lamb/internal/ir"
)

// Chain is the matrix chain expression X := A₁·A₂·…·Aₙ with n terms.
// An instance has n+1 dimensions (d0, …, dn): term i is dᵢ₋₁×dᵢ.
//
// The algorithm set is every order in which the n−1 pairwise products can
// be performed — (n−1)! algorithms. Note that this is finer-grained than
// parenthesisations: the paper's Algorithms 2 and 5 for ABCD share the
// tree (AB)(CD) but differ in which product is computed first, which
// matters for inter-kernel cache effects. The enumerator's depth-first
// contraction visits the paper's Algorithms 1–6 in exactly the paper's
// order for the 4-term chain.
type Chain struct {
	// Terms is the number of matrices in the chain (≥ 2).
	Terms int
}

// NewChainABCD returns the paper's 4-term matrix chain expression.
func NewChainABCD() Chain { return Chain{Terms: 4} }

// Name implements Expression.
func (c Chain) Name() string {
	if c.Terms == 4 {
		return "chain-ABCD"
	}
	return fmt.Sprintf("chain-%d", c.Terms)
}

// Arity implements Expression: a chain of n terms has n+1 dimensions.
func (c Chain) Arity() int { return c.Terms + 1 }

// Validate implements Expression. The term count is checked before
// anything is enumerated.
func (c Chain) Validate(inst Instance) error {
	if err := c.checkTerms(); err != nil {
		return err
	}
	return validateDims(c.Name(), c.Arity(), inst)
}

// maxCountedTerms is the longest chain whose set size (n−1)! fits in an
// int: 20! < 2⁶³ ≤ 21!.
const maxCountedTerms = 21

// checkTerms rejects the term counts no chain can be built for: fewer
// than two, more operands than there are letters to name them, or more
// algorithms than an int can count.
func (c Chain) checkTerms() error {
	if c.Terms < 2 {
		return fmt.Errorf("expr: chain needs at least 2 terms, has %d", c.Terms)
	}
	if c.Terms > 26 {
		return fmt.Errorf("expr: chain of %d terms exceeds the naming limit of 26", c.Terms)
	}
	if c.Terms > maxCountedTerms {
		return fmt.Errorf("expr: chain of %d terms has %d! algorithms, more than the count limit of %d terms allows", c.Terms, c.Terms-1, maxCountedTerms)
	}
	return nil
}

// NumAlgorithms implements Expression: (n−1)!, the size of the set,
// computed without enumerating it. It is exact for every term count
// Validate accepts.
func (c Chain) NumAlgorithms() int {
	n := 1
	for i := 2; i < c.Terms; i++ {
		n *= i
	}
	return n
}

// chainGenerics caches one Generic constructor per term count.
var chainGenerics sync.Map

// generic returns the chain's Generic, enumerated on first use per term
// count. It panics if the term count is invalid.
func (c Chain) generic() Generic {
	if err := c.checkTerms(); err != nil {
		panic(err)
	}
	mk, ok := chainGenerics.Load(c.Terms)
	if !ok {
		mk, _ = chainGenerics.LoadOrStore(c.Terms, builtin(c.def))
	}
	return mk.(func() Generic)()
}

// def builds the chain's IR: an associative product of n general
// operands, rendered in the paper's bare Figure-3 notation.
func (c Chain) def() *ir.Def {
	factors := make([]ir.Node, c.Terms)
	for i := 0; i < c.Terms; i++ {
		factors[i] = ir.NewOperand(string(rune('A'+i)), ir.Dim(i), ir.Dim(i+1))
	}
	return &ir.Def{Name: c.Name(), Arity: c.Arity(), Root: ir.Mul(factors...), Style: ir.StyleBare}
}

// Symbolic returns the chain's symbolic algorithm set, enumerated once
// per term count. It panics if the term count is invalid.
func (c Chain) Symbolic() *ir.SymbolicSet { return c.generic().Symbolic() }

// Algorithms implements Expression by binding the chain's symbolic set.
// It panics with Validate's error on an invalid chain or instance.
func (c Chain) Algorithms(inst Instance) []Algorithm { return c.generic().Algorithms(inst) }

// MinFlopsParenthesisation solves the classic matrix-chain ordering
// problem by dynamic programming in O(n³) time: given the n+1 chain
// dimensions it returns the minimum FLOP count over all parenthesisations
// (counting 2·m·n·k per product, as the paper does for GEMM) and a fully
// parenthesised rendering of one optimal tree.
//
// This is the textbook baseline against which the enumerated algorithm
// set is checked: the minimum over the (n−1)! enumerated algorithms must
// equal the DP optimum.
func MinFlopsParenthesisation(dims []int) (float64, string) {
	n := len(dims) - 1
	if n < 1 {
		panic(fmt.Sprintf("expr: chain DP needs at least one term, dims %v", dims))
	}
	cost := make([][]float64, n)
	split := make([][]int, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		split[i] = make([]int, n)
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := -1.0
			for s := i; s < j; s++ {
				c := cost[i][s] + cost[s+1][j] + 2*float64(dims[i])*float64(dims[s+1])*float64(dims[j+1])
				if best < 0 || c < best {
					best = c
					split[i][j] = s
				}
			}
			cost[i][j] = best
		}
	}
	var render func(i, j int) string
	render = func(i, j int) string {
		if i == j {
			return string(rune('A' + i))
		}
		s := split[i][j]
		return "(" + render(i, s) + render(s+1, j) + ")"
	}
	return cost[0][n-1], render(0, n-1)
}
