package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"lamb"
	"lamb/internal/report"
)

// pipeline bundles the shared experiment steps: Experiment 2 needs
// Experiment 1's anomalies, and Experiment 3 needs Experiment 2's line
// samples, exactly as in the paper. The expression and timer come from
// the selection engine, so every experiment runner binds algorithm sets
// through the engine's caches and measures through its executor — the
// same pipeline `select` and `serve` answer queries from.
type pipeline struct {
	c     *commonFlags
	e     lamb.Expression
	timer *lamb.Timer
}

func newPipeline(c *commonFlags) (*pipeline, error) {
	eng, err := c.engine(0)
	if err != nil {
		return nil, err
	}
	e, err := eng.Expression(c.exprName)
	if err != nil {
		return nil, err
	}
	return &pipeline{c: c, e: e, timer: eng.Timer()}, nil
}

// exp1 runs the random search at the paper's 10% threshold.
func (p *pipeline) exp1(progress bool) lamb.Exp1Result {
	target, maxSamples := p.c.exp1Target(p.c.exprName)
	runner := lamb.NewRunner(p.e, p.timer, 0.10)
	cfg := lamb.Exp1Config{
		Box:             p.c.box(p.e.Arity()),
		TargetAnomalies: target,
		MaxSamples:      maxSamples,
		Seed:            p.c.seed,
	}
	if progress {
		cfg.ProgressEvery = 2000
		cfg.Progress = func(samples, anomalies int) {
			fmt.Fprintf(os.Stderr, "  exp1: %d samples, %d anomalies\r", samples, anomalies)
		}
	}
	res := lamb.RunExperiment1(runner, cfg, p.workers())
	if progress {
		fmt.Fprintln(os.Stderr)
	}
	return res
}

// workers resolves the parallelism: the measured backend must stay
// sequential (timing kernels concurrently would contend for the cores
// being measured), the simulated backend defaults to GOMAXPROCS.
func (p *pipeline) workers() int {
	if p.c.backend != "sim" {
		return 1
	}
	if p.c.workers > 0 {
		return p.c.workers
	}
	return runtime.GOMAXPROCS(0)
}

// exp2 traverses regions at the paper's 5% threshold.
func (p *pipeline) exp2(exp1 lamb.Exp1Result, progress bool) lamb.Exp2Result {
	n := min(p.c.exp2Anomalies(), len(exp1.Anomalies))
	origins := make([]lamb.Instance, 0, n)
	for _, a := range exp1.Anomalies[:n] {
		origins = append(origins, a.Inst)
	}
	runner := lamb.NewRunner(p.e, p.timer, 0.05)
	cfg := lamb.DefaultExp2Config(p.c.box(p.e.Arity()))
	if progress {
		cfg.Progress = func(line, total int) {
			fmt.Fprintf(os.Stderr, "  exp2: line %d/%d\r", line, total)
		}
	}
	res := lamb.RunExperiment2(runner, origins, cfg, p.workers())
	if progress {
		fmt.Fprintln(os.Stderr)
	}
	return res
}

// exp3 predicts from isolated benchmarks at the paper's 5% threshold.
func (p *pipeline) exp3(exp2 lamb.Exp2Result, progress bool) lamb.Exp3Result {
	runner := lamb.NewRunner(p.e, p.timer, 0.05)
	cfg := lamb.Exp3Config{Threshold: 0.05}
	if progress {
		cfg.ProgressEvery = 2000
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "  exp3: %d/%d samples\r", done, total)
		}
	}
	res := lamb.RunExperiment3(runner, exp2, cfg, p.workers())
	if progress {
		fmt.Fprintln(os.Stderr)
	}
	return res
}

// reportExp1 prints the abundance headline and the scatter figure
// (Figure 6 for the chain, Figure 9 for AAᵀB).
func (p *pipeline) reportExp1(res lamb.Exp1Result) error {
	fmt.Printf("Experiment 1 (%s, backend %s): %d samples, %d distinct anomalies, abundance %s\n\n",
		p.e.Name(), p.c.backend, res.Samples, len(res.Anomalies), fmtPct(res.Abundance))
	if len(res.Anomalies) == 0 {
		return nil
	}
	xs := make([]float64, len(res.Anomalies))
	ys := make([]float64, len(res.Anomalies))
	csv := [][]string{{"instance", "flop_score", "time_score"}}
	severe := 0
	for i, a := range res.Anomalies {
		xs[i] = a.Class.FlopScore
		ys[i] = a.Class.TimeScore
		if a.Class.TimeScore > 0.20 || a.Class.FlopScore > 0.30 {
			severe++
		}
		csv = append(csv, []string{a.Inst.String(),
			fmt.Sprintf("%.4f", a.Class.FlopScore), fmt.Sprintf("%.4f", a.Class.TimeScore)})
	}
	fmt.Printf("severe anomalies (time score > 20%% or FLOP score > 30%%): %d of %d (%s)\n\n",
		severe, len(res.Anomalies), fmtPct(float64(severe)/float64(len(res.Anomalies))))
	if err := report.Scatter(os.Stdout, xs, ys, 0, 0.5, 0, 0.5, 56, 14,
		"FLOP score", "time score"); err != nil {
		return err
	}
	return p.c.writeCSV(fmt.Sprintf("exp1-%s.csv", p.c.exprName), csv)
}

// reportExp2 prints the thickness distributions (Figures 7 and 10) and,
// optionally, per-algorithm efficiency along example lines (Figures 8
// and 11).
func (p *pipeline) reportExp2(res lamb.Exp2Result, lines int) error {
	fmt.Printf("\nExperiment 2 (%s): %d lines, %d samples\n\n", p.e.Name(), len(res.Lines), res.TotalSamples)
	byDim := res.ThicknessByDim(p.e.Arity())
	fmt.Println("Region thickness per dimension:")
	if err := report.ThicknessDistribution(os.Stdout, byDim); err != nil {
		return err
	}
	csv := [][]string{{"origin", "dim", "boundary_lo", "boundary_hi", "thickness"}}
	for _, ln := range res.Lines {
		csv = append(csv, []string{ln.Origin.String(), fmt.Sprint(ln.Dim),
			fmt.Sprint(ln.BoundaryLo), fmt.Sprint(ln.BoundaryHi), fmt.Sprint(ln.Thickness)})
	}
	if err := p.c.writeCSV(fmt.Sprintf("exp2-%s.csv", p.c.exprName), csv); err != nil {
		return err
	}
	for i := 0; i < lines && i < len(res.Lines); i++ {
		if err := p.reportLine(&res.Lines[i]); err != nil {
			return err
		}
	}
	return nil
}

// reportLine renders one traversal line in the style of Figures 8/11:
// per algorithm, the total efficiency along the traversed dimension.
func (p *pipeline) reportLine(ln *lamb.Line) error {
	fmt.Printf("\nEfficiency along %v, dimension d%d (region [%d, %d], thickness %d):\n",
		ln.Origin, ln.Dim, ln.BoundaryLo, ln.BoundaryHi, ln.Thickness)
	if len(ln.Samples) == 0 {
		return nil
	}
	peak := p.timer.Exec.Peak()
	nAlgs := len(ln.Samples[0].Res.Times)
	xs := make([]int, len(ln.Samples))
	for ai := 0; ai < nAlgs; ai++ {
		ys := make([]float64, len(ln.Samples))
		for si, s := range ln.Samples {
			xs[si] = s.Coord
			ys[si] = s.Res.Flops[ai] / (s.Res.Times[ai] * peak)
		}
		label := fmt.Sprintf("algorithm %d", ai+1)
		if err := report.Line(os.Stdout, xs, ys, 0, 1, 8, label); err != nil {
			return err
		}
	}
	// Mark the classification along the line.
	marks := make([]byte, len(ln.Samples))
	for si, s := range ln.Samples {
		if s.Res.Class.Anomaly {
			marks[si] = 'A'
		} else {
			marks[si] = '.'
		}
	}
	fmt.Printf("anomaly: |%s|\n", string(marks))
	return nil
}

// reportExp3 prints the confusion matrix (Tables 1 and 2).
func (p *pipeline) reportExp3(res lamb.Exp3Result) error {
	cm := res.Confusion
	fmt.Printf("\nExperiment 3 (%s): confusion matrix over %d line samples (%d distinct calls benchmarked)\n\n",
		p.e.Name(), cm.Total(), res.DistinctCalls)
	fmt.Println(cm.String())
	fmt.Printf("recall (anomalies predicted):    %s\n", fmtPct(cm.Recall()))
	fmt.Printf("precision (predictions actual):  %s\n", fmtPct(cm.Precision()))
	csv := [][]string{
		{"", "pred_no", "pred_yes"},
		{"actual_no", fmt.Sprint(cm.TN), fmt.Sprint(cm.FP)},
		{"actual_yes", fmt.Sprint(cm.FN), fmt.Sprint(cm.TP)},
	}
	return p.c.writeCSV(fmt.Sprintf("exp3-%s.csv", p.c.exprName), csv)
}

func cmdExp1(args []string) error {
	fs := flag.NewFlagSet("exp1", flag.ExitOnError)
	c := registerCommon(fs)
	if err := c.parse(fs, args); err != nil {
		return err
	}
	p, err := newPipeline(c)
	if err != nil {
		return err
	}
	return p.reportExp1(p.exp1(true))
}

func cmdExp2(args []string) error {
	fs := flag.NewFlagSet("exp2", flag.ExitOnError)
	c := registerCommon(fs)
	lines := fs.Int("lines", 0, "render per-algorithm efficiency for this many lines (Figures 8/11)")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	p, err := newPipeline(c)
	if err != nil {
		return err
	}
	exp1 := p.exp1(true)
	if err := p.reportExp1(exp1); err != nil {
		return err
	}
	return p.reportExp2(p.exp2(exp1, true), *lines)
}

func cmdExp3(args []string) error {
	fs := flag.NewFlagSet("exp3", flag.ExitOnError)
	c := registerCommon(fs)
	if err := c.parse(fs, args); err != nil {
		return err
	}
	p, err := newPipeline(c)
	if err != nil {
		return err
	}
	exp1 := p.exp1(true)
	if err := p.reportExp1(exp1); err != nil {
		return err
	}
	exp2 := p.exp2(exp1, true)
	if err := p.reportExp2(exp2, 0); err != nil {
		return err
	}
	return p.reportExp3(p.exp3(exp2, true))
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	c := registerCommon(fs)
	lines := fs.Int("lines", 2, "example lines to render per expression")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	for _, name := range []string{"chain", "aatb"} {
		cc := *c
		cc.exprName = name
		p, err := newPipeline(&cc)
		if err != nil {
			return err
		}
		fmt.Printf("==== %s ====\n\n", p.e.Name())
		exp1 := p.exp1(true)
		if err := p.reportExp1(exp1); err != nil {
			return err
		}
		exp2 := p.exp2(exp1, true)
		if err := p.reportExp2(exp2, *lines); err != nil {
			return err
		}
		if err := p.reportExp3(p.exp3(exp2, true)); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
