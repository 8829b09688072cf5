// AAᵀB anomaly hunt: a miniature version of the paper's Experiment 1 and
// Experiment 2 on the expression X := A·Aᵀ·B, where anomalies are
// abundant (the paper reports 9.7% of the search space).
//
// Run with:
//
//	go run ./examples/aatb
package main

import (
	"fmt"

	"lamb"
)

func main() {
	aatb := lamb.AATB()
	timer := lamb.NewSimTimer()

	// Experiment 1 (miniature): random search until 25 anomalies are
	// found at the paper's 10% time-score threshold.
	runner := lamb.NewRunner(aatb, timer, 0.10)
	res := lamb.RunExperiment1(runner, lamb.Exp1Config{
		Box:             lamb.PaperBox(3),
		TargetAnomalies: 25,
		MaxSamples:      5000,
		Seed:            2022,
	}, 1)
	fmt.Printf("random search: %d samples, %d anomalies (abundance %.1f%%)\n\n",
		res.Samples, len(res.Anomalies), 100*res.Abundance)

	fmt.Println("the five worst anomalies found:")
	worst := append([]lamb.InstanceResult(nil), res.Anomalies...)
	for i := 0; i < len(worst); i++ {
		for j := i + 1; j < len(worst); j++ {
			if worst[j].Class.TimeScore > worst[i].Class.TimeScore {
				worst[i], worst[j] = worst[j], worst[i]
			}
		}
	}
	for _, a := range worst[:min(5, len(worst))] {
		fmt.Printf("  %-18v cheapest alg %d, fastest alg %d: %4.1f%% faster with %4.1f%% more FLOPs\n",
			a.Inst, a.Class.CheapestSet[0]+1, a.Class.FastestSet[0]+1,
			100*a.Class.TimeScore, 100*a.Class.FlopScore)
	}

	// Experiment 2 (miniature): how far does the first anomaly's region
	// extend in each dimension?
	runner5 := lamb.NewRunner(aatb, timer, 0.05)
	exp2 := lamb.RunExperiment2(runner5, []lamb.Instance{res.Anomalies[0].Inst},
		lamb.DefaultExp2Config(lamb.PaperBox(3)), 1)
	fmt.Printf("\nregion around %v (5%% threshold):\n", res.Anomalies[0].Inst)
	for _, ln := range exp2.Lines {
		fmt.Printf("  d%d: [%4d, %4d]  thickness %4d  (%d samples)\n",
			ln.Dim, ln.BoundaryLo, ln.BoundaryHi, ln.Thickness, len(ln.Samples))
	}
	fmt.Println("\nnote how the region is much thinner in d0 than in d1/d2 —")
	fmt.Println("the paper observes exactly this (Figure 10): SYRK's efficiency")
	fmt.Println("gap closes as d0 grows, ending the anomaly.")
}
