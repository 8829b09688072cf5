package core

import (
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
)

// Integration tests: the full experiment pipeline end-to-end on both
// backends and all three expressions.

func TestPipelineSimulatedAllExpressions(t *testing.T) {
	timer := exec.NewTimer(exec.NewDefaultSimulated())
	for _, e := range []expr.Expression{expr.NewChainABCD(), expr.NewAATB(), expr.NewLstSq()} {
		t.Run(e.Name(), func(t *testing.T) {
			r10 := NewRunner(e, timer, 0.10)
			box := expr.PaperBox(e.Arity())
			exp1 := RunExp1(r10, Exp1Config{
				Box: box, TargetAnomalies: 2, MaxSamples: 20000, Seed: 77,
			}, 1)
			if len(exp1.Anomalies) == 0 {
				t.Fatalf("%s: no anomalies found", e.Name())
			}
			var origins []expr.Instance
			for _, a := range exp1.Anomalies {
				origins = append(origins, a.Inst)
			}
			r5 := NewRunner(e, timer, 0.05)
			exp2 := RunExp2(r5, origins, DefaultExp2Config(box), 1)
			if len(exp2.Lines) != len(origins)*e.Arity() {
				t.Fatalf("%s: %d lines, want %d", e.Name(), len(exp2.Lines), len(origins)*e.Arity())
			}
			for _, ln := range exp2.Lines {
				if len(ln.Samples) == 0 {
					t.Fatalf("%s: empty line", e.Name())
				}
				if ln.Thickness < 0 {
					t.Fatalf("%s: negative thickness", e.Name())
				}
			}
			exp3 := RunExp3(r5, exp2, Exp3Config{Threshold: 0.05}, 1)
			if exp3.Confusion.Total() != exp2.TotalSamples {
				t.Fatalf("%s: exp3 total mismatch", e.Name())
			}
			if exp3.DistinctCalls == 0 {
				t.Fatalf("%s: no calls benchmarked", e.Name())
			}
		})
	}
}

func TestPipelineMeasuredBackendSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measured pipeline is slow")
	}
	// A miniature of the full study against real pure-Go BLAS timings:
	// exercises materialisation, flushing, per-call timing, and the
	// isolated-benchmark protocol with genuine noise.
	m := exec.NewMeasured()
	m.FlushBytes = 2 << 20
	timer := &exec.Timer{Exec: m, Reps: 2}
	e := expr.NewAATB()
	box := expr.UniformBox(3, 16, 80)
	r10 := NewRunner(e, timer, 0.10)
	exp1 := RunExp1(r10, Exp1Config{Box: box, TargetAnomalies: 2, MaxSamples: 12, Seed: 5}, 1)
	if exp1.Samples == 0 {
		t.Fatal("no samples evaluated")
	}
	for _, a := range exp1.Anomalies {
		if !box.Contains(a.Inst) {
			t.Fatalf("anomaly %v outside box", a.Inst)
		}
	}
	// Even if no anomaly was found at this tiny scale, the traversal and
	// prediction machinery must run; seed one origin artificially.
	origins := []expr.Instance{{48, 32, 40}}
	cfg := DefaultExp2Config(box)
	cfg.Step = 16
	r5 := NewRunner(e, timer, 0.05)
	exp2 := RunExp2(r5, origins, cfg, 1)
	if exp2.TotalSamples == 0 {
		t.Fatal("no exp2 samples")
	}
	exp3 := RunExp3(r5, exp2, Exp3Config{Threshold: 0.05}, 1)
	if exp3.Confusion.Total() != exp2.TotalSamples {
		t.Fatal("exp3/exp2 totals disagree on measured backend")
	}
}

func TestThicknessByDimAcrossExpressions(t *testing.T) {
	timer := exec.NewTimer(exec.NewDefaultSimulated())
	e := expr.NewLstSq()
	r := NewRunner(e, timer, 0.05)
	exp2 := RunExp2(r, []expr.Instance{{150, 900, 100}}, DefaultExp2Config(expr.PaperBox(3)), 1)
	byDim := exp2.ThicknessByDim(3)
	total := 0
	for _, ths := range byDim {
		total += len(ths)
	}
	if total != len(exp2.Lines) {
		t.Fatalf("thickness grouping lost lines: %d vs %d", total, len(exp2.Lines))
	}
}
