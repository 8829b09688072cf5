package expr

import (
	"fmt"

	"lamb/internal/ir"
)

// NewChain returns the matrix chain X := A₁·A₂·…·Aₙ with n terms. An
// instance has n+1 dimensions (d0, …, dn): term i is dᵢ₋₁×dᵢ.
//
// The algorithm set is every order in which the n−1 pairwise products can
// be performed — (n−1)! algorithms. Note that this is finer-grained than
// parenthesisations: the paper's Algorithms 2 and 5 for ABCD share the
// tree (AB)(CD) but differ in which product is computed first, which
// matters for inter-kernel cache effects. The enumerator's depth-first
// contraction visits the paper's Algorithms 1–6 in exactly the paper's
// order for the 4-term chain.
//
// Fewer than 2 terms, more than 23 (the letters A to W that name them;
// a 24th term would be X, the output's name) and a set over
// ir.MaxAlgorithms (10 terms and more) are errors, checked in that
// order.
func NewChain(terms int) (Generic, error) {
	switch {
	case terms < 2:
		return Generic{}, fmt.Errorf("expr: chain needs at least 2 terms, has %d", terms)
	case terms > 23:
		return Generic{}, fmt.Errorf("expr: chain of %d terms exceeds the naming limit of 23", terms)
	case terms-2 < len(chains):
		return chains[terms-2](), nil
	}
	return NewGeneric(chainDef(terms))
}

// NewChainABCD returns the paper's 4-term matrix chain expression.
func NewChainABCD() Generic { return chains[2]() }

// chains holds the constructors of the chains of 2 to 9 terms, the
// ones whose (n−1)! algorithms fit ir.MaxAlgorithms.
var chains = func() (t [8]func() Generic) {
	for i := range t {
		t[i] = builtin(func() *ir.Def { return chainDef(i + 2) })
	}
	return t
}()

// chainDef builds the n-term chain's IR: an associative product of n
// general operands, rendered in the paper's bare Figure-3 notation.
func chainDef(terms int) *ir.Def {
	name := fmt.Sprintf("chain-%d", terms)
	if terms == 4 {
		name = "chain-ABCD"
	}
	factors := make([]ir.Node, terms)
	for i := range factors {
		factors[i] = ir.NewOperand(string(rune('A'+i)), ir.Dim(i), ir.Dim(i+1))
	}
	return &ir.Def{Name: name, Arity: terms + 1, Root: ir.Mul(factors...), Style: ir.StyleBare}
}

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
