// Matrix chain deep-dive: the general n-term chain enumerator, the
// classic dynamic-programming baseline, numerical equivalence of all
// algorithms on the real pure-Go BLAS, and a traversal of an anomalous
// region in the style of the paper's Figure 8.
//
// Run with:
//
//	go run ./examples/matrixchain
package main

import (
	"fmt"

	"lamb"
)

func main() {
	// --- Part 1: a 6-term chain has 5! = 120 evaluation orders. ---------
	chain, err := lamb.NewChain(6)
	if err != nil {
		panic(err)
	}
	inst := lamb.Instance{90, 700, 40, 250, 30, 500, 120}
	algs := chain.Algorithms(inst)
	fmt.Printf("chain of %d terms, instance %v: %d algorithms\n", 6, inst, len(algs))

	// The DP solves the ordering problem in O(n³); the enumerated minimum
	// must agree with it.
	best := algs[0]
	for _, a := range algs[1:] {
		if a.Flops() < best.Flops() {
			best = a
		}
	}
	dp, tree := lamb.MinFlopsParenthesisation([]int(inst))
	fmt.Printf("cheapest enumerated: %-52s %.0f FLOPs\n", best.Name, best.Flops())
	fmt.Printf("DP optimum:          %-52s %.0f FLOPs\n", tree, dp)
	if best.Flops() != dp {
		panic("enumeration disagrees with DP — this is a bug")
	}

	// --- Part 2: all algorithms compute the same matrix. ----------------
	// Evaluate three algorithms of a small chain on the pure-Go BLAS.
	small := lamb.Instance{12, 9, 15, 7, 11}
	sAlgs := lamb.ChainABCD().Algorithms(small)
	inputs := map[string]*lamb.Matrix{
		"A": lamb.NewRandomMatrix(12, 9, 1),
		"B": lamb.NewRandomMatrix(9, 15, 2),
		"C": lamb.NewRandomMatrix(15, 7, 3),
		"D": lamb.NewRandomMatrix(7, 11, 4),
	}
	ref := lamb.EvaluateAlgorithm(&sAlgs[0], inputs)
	for i := range sAlgs[1:] {
		got := lamb.EvaluateAlgorithm(&sAlgs[i+1], inputs)
		var maxDiff float64
		for r := 0; r < ref.Rows; r++ {
			for c := 0; c < ref.Cols; c++ {
				if d := abs(ref.At(r, c) - got.At(r, c)); d > maxDiff {
					maxDiff = d
				}
			}
		}
		fmt.Printf("algorithm %d vs 1: max |diff| = %.2e\n", i+2, maxDiff)
	}

	// --- Part 3: walk through an anomalous region (Figure 8 style). -----
	// Traverse d2 through an anomaly of the simulated machine and print,
	// for each step, which algorithm is cheapest and which is fastest.
	timer := lamb.NewSimTimer()
	runner := lamb.NewRunner(lamb.ChainABCD(), timer, 0.05)
	origin := lamb.Instance{761, 1063, 365, 229, 245}
	fmt.Printf("\ntraversing d2 through %v (threshold 5%%):\n", origin)
	fmt.Println("   d2   cheapest  fastest  time-score  anomaly")
	for d2 := 165; d2 <= 665; d2 += 50 {
		inst := origin.Clone()
		inst[2] = d2
		res := runner.Evaluate(inst)
		mark := ""
		if res.Class.Anomaly {
			mark = "  <== anomaly"
		}
		fmt.Printf("  %4d   alg %d     alg %d    %5.1f%%%s\n",
			d2, res.Class.CheapestSet[0]+1, res.Class.FastestSet[0]+1,
			100*res.Class.TimeScore, mark)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
