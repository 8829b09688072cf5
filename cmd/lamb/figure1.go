package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lamb"
	"lamb/internal/report"
)

// cmdFigure1 reproduces the paper's Figure 1: the efficiency of GEMM,
// SYRK, and SYMM on square operands as size grows. -kinds draws any
// other kernel kind that performs FLOPs beside them, or instead.
func cmdFigure1(args []string) error {
	fs := flag.NewFlagSet("figure1", flag.ExitOnError)
	c := registerCommon(fs)
	maxSize := fs.Int("max", 3000, "largest square size")
	step := fs.Int("step", 50, "size step")
	kindList := fs.String("kinds", "gemm,syrk,symm",
		"comma-separated kernel kinds to draw: "+strings.Join(flopKindNames(), ", "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	kinds, err := parseFlopKinds(*kindList)
	if err != nil {
		return err
	}
	timer, err := c.timer()
	if err != nil {
		return err
	}
	if c.backend == "blas" && *maxSize > 768 && !flagSet(fs, "max") {
		*maxSize = 512 // keep the measured backend tractable by default
		*step = 32
	}
	var sizes []int
	for s := *step; s <= *maxSize; s += *step {
		sizes = append(sizes, s)
	}

	curves := make([][]lamb.CurvePoint, len(kinds))
	for i, k := range kinds {
		curves[i] = lamb.EfficiencyCurve(timer, k, sizes)
	}

	fmt.Printf("Figure 1 — kernel efficiency vs square size (backend %s)\n\n", c.backend)
	header := []string{"size"}
	for _, k := range kinds {
		header = append(header, k.String())
	}
	rows := [][]string{header}
	csv := [][]string{header}
	for j, s := range sizes {
		row := []string{fmt.Sprint(s)}
		for i := range kinds {
			row = append(row, fmt.Sprintf("%.3f", curves[i][j].Efficiency))
		}
		rows = append(rows, row)
		csv = append(csv, row)
	}
	if err := report.Table(os.Stdout, rows); err != nil {
		return err
	}
	fmt.Println()
	for i, k := range kinds {
		ys := make([]float64, len(sizes))
		for j := range sizes {
			ys[j] = curves[i][j].Efficiency
		}
		if err := report.Line(os.Stdout, sizes, ys, 0, 1, 10, k.String()+" efficiency"); err != nil {
			return err
		}
		fmt.Println()
	}
	return c.writeCSV("figure1.csv", csv)
}

// flopKindNames lists the kernel kinds an efficiency curve can be drawn
// for: those whose canonical call performs FLOPs (Tri2Full only moves
// data).
func flopKindNames() []string {
	var names []string
	for k := lamb.KernelKind(0); int(k) < lamb.NumKernelKinds; k++ {
		if k.Canonical(1, 1, 1).Flops() > 0 {
			names = append(names, k.String())
		}
	}
	return names
}

// parseFlopKinds parses figure1's -kinds list, in the order given.
func parseFlopKinds(list string) ([]lamb.KernelKind, error) {
	var kinds []lamb.KernelKind
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		k := lamb.KernelKind(0)
		for int(k) < lamb.NumKernelKinds && k.String() != name {
			k++
		}
		if int(k) == lamb.NumKernelKinds || k.Canonical(1, 1, 1).Flops() == 0 {
			return nil, fmt.Errorf("unknown kernel kind %q in -kinds (want any of %s)", name, strings.Join(flopKindNames(), ", "))
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
