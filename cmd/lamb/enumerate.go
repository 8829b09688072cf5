package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lamb"
	"lamb/internal/report"
)

// cmdEnumerate prints the generated algorithm set of any registered
// expression with FLOP counts — the content of the paper's Figures 3
// and 5 — for a concrete instance.
func cmdEnumerate(args []string) error {
	fs := flag.NewFlagSet("enumerate", flag.ExitOnError)
	c := registerCommon(fs)
	instFlag := fs.String("inst", "", "instance sizes, e.g. 100,200,300 (default: paper example)")
	terms := fs.Int("terms", 0, "general chain with this many terms (overrides -expr)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var e lamb.Expression
	var err error
	if *terms != 0 {
		e, err = lamb.NewChain(*terms)
	} else {
		e, err = c.expression()
	}
	if err != nil {
		return err
	}
	def := defaultInstance(c.exprName, e.Arity(), *terms != 0)
	inst := def
	if *instFlag != "" {
		inst, err = parseInstance(*instFlag, e.Arity())
		if err != nil {
			return err
		}
	}

	if err := e.Validate(inst); err != nil {
		return err
	}
	algs := e.Algorithms(inst)
	fmt.Printf("%s instance %v: %d mathematically equivalent algorithms\n\n", e.Name(), inst, len(algs))
	rows := [][]string{{"#", "algorithm", "kernels", "FLOPs"}}
	for _, a := range algs {
		kinds := ""
		for i, call := range a.Calls {
			if i > 0 {
				kinds += "+"
			}
			kinds += call.Kind.String()
		}
		rows = append(rows, []string{
			fmt.Sprint(a.Index), a.Name, kinds, fmt.Sprintf("%.0f", a.Flops()),
		})
	}
	if err := report.Table(os.Stdout, rows); err != nil {
		return err
	}

	if strings.HasPrefix(e.Name(), "chain-") {
		dp, tree := lamb.MinFlopsParenthesisation([]int(inst))
		fmt.Printf("\nDP minimum-FLOPs parenthesisation: %s with %.0f FLOPs (%d algorithms total)\n",
			tree, dp, e.NumAlgorithms())
	}
	return nil
}

// defaultInstance returns the example instance printed when -inst is
// omitted: the paper's figure instances for its expressions, a generic
// ramp otherwise.
func defaultInstance(exprName string, arity int, generalChain bool) lamb.Instance {
	if !generalChain {
		switch strings.ToLower(exprName) {
		case "chain":
			return lamb.Instance{331, 279, 338, 854, 427}
		case "aatb", "lstsq":
			return lamb.Instance{227, 260, 549}
		}
	}
	def := make(lamb.Instance, arity)
	for i := range def {
		def[i] = 100 + 50*i
	}
	return def
}
