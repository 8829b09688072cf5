// Command irbuilder demonstrates the expression-IR builder API: define
// a new expression as an operand tree, let the generic enumerator
// derive its algorithm set, and run the anomaly study on it — no
// hand-coded algorithm lists anywhere.
//
// The expression here is the Gram-chain hybrid X := A·Aᵀ·B·C (also
// available as the built-in "aatbc"); change the tree and everything
// downstream follows.
package main

import (
	"fmt"
	"log"

	"lamb"
)

func main() {
	a := lamb.Operand("A", 0, 1)
	b := lamb.Operand("B", 0, 2)
	c := lamb.Operand("C", 2, 3)
	e, err := lamb.DefineExpression("my-aatbc", 4, lamb.Mul(a, lamb.Transpose(a), b, c))
	if err != nil {
		log.Fatal(err)
	}

	inst := lamb.Instance{100, 150, 200, 250}
	algs := e.Algorithms(inst)
	fmt.Printf("%s at %v: %d generated algorithms\n", e.Name(), inst, len(algs))
	for _, alg := range algs[:3] {
		fmt.Printf("  %d: %s  (%.0f FLOPs)\n", alg.Index, alg.Name, alg.Flops())
	}
	fmt.Println("  ...")

	// The generated set plugs straight into the paper's experiments.
	runner := lamb.NewRunner(e, lamb.NewSimTimer(), 0.10)
	res := runner.Evaluate(inst)
	fmt.Printf("cheapest set %v, fastest set %v, anomaly: %v\n",
		res.Class.CheapestSet, res.Class.FastestSet, res.Class.Anomaly)

	exp1 := lamb.RunExperiment1(runner, lamb.Exp1Config{
		Box:             lamb.PaperBox(e.Arity()),
		TargetAnomalies: 5,
		MaxSamples:      2000,
		Seed:            42,
	}, 1)
	fmt.Printf("experiment 1: %d samples, %d distinct anomalies, abundance %.1f%%\n",
		exp1.Samples, len(exp1.Anomalies), 100*exp1.Abundance)
}
