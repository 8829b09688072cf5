package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/par"
)

// simRunner returns a runner on the (concurrency-safe) simulated machine.
func simRunner(e expr.Expression, threshold float64) *Runner {
	return NewRunner(e, exec.NewTimer(exec.NewDefaultSimulated()), threshold)
}

// testWorkers are the worker counts every driver must agree across; one
// worker is the sequential reference.
var testWorkers = []int{1, 2, 4}

func TestExp1ParallelMatchesSequential(t *testing.T) {
	cfg := Exp1Config{
		Box:             expr.PaperBox(3),
		TargetAnomalies: 8,
		MaxSamples:      400,
		Seed:            5,
	}
	seq := RunExp1(simRunner(expr.NewAATB(), 0.10), cfg, 1)
	for _, w := range testWorkers[1:] {
		par := RunExp1(simRunner(expr.NewAATB(), 0.10), cfg, w)
		if seq.Samples != par.Samples {
			t.Fatalf("workers %d: samples: seq %d, par %d", w, seq.Samples, par.Samples)
		}
		if seq.Abundance != par.Abundance {
			t.Fatalf("workers %d: abundance: seq %v, par %v", w, seq.Abundance, par.Abundance)
		}
		if len(seq.Anomalies) != len(par.Anomalies) {
			t.Fatalf("workers %d: anomalies: seq %d, par %d", w, len(seq.Anomalies), len(par.Anomalies))
		}
		for i := range seq.Anomalies {
			if seq.Anomalies[i].Inst.String() != par.Anomalies[i].Inst.String() {
				t.Fatalf("workers %d: anomaly %d: seq %v, par %v", w, i, seq.Anomalies[i].Inst, par.Anomalies[i].Inst)
			}
			if seq.Anomalies[i].Class.TimeScore != par.Anomalies[i].Class.TimeScore {
				t.Fatalf("workers %d: anomaly %d scores differ", w, i)
			}
		}
	}
}

// TestExp1SingleWorkerHasNoSurplus checks that at one worker Experiment 1
// evaluates exactly the instances it counts: on the measured backend
// every surplus evaluation would cost each algorithm × every repetition.
func TestExp1SingleWorkerHasNoSurplus(t *testing.T) {
	// Every instance is an anomaly, so the target is met mid-way through
	// any batch larger than one.
	r, stub := stubRunner(func(d0, d1, d2 int) bool { return true })
	res := RunExp1(r, Exp1Config{
		Box: expr.UniformBox(3, 20, 1200), TargetAnomalies: 3, MaxSamples: 10_000, Seed: 1,
	}, 1)
	if len(res.Anomalies) != 3 || res.Samples != 3 {
		t.Fatalf("%d anomalies in %d samples, want 3 in 3", len(res.Anomalies), res.Samples)
	}
	// Reps = 1 and AAᵀB has five algorithms: one Evaluate is five
	// TimeAlgorithm calls.
	if got, want := stub.algCalls.Load(), int64(5*res.Samples); got != want {
		t.Fatalf("%d TimeAlgorithm calls for %d samples, want %d (no surplus evaluations)",
			got, res.Samples, want)
	}
}

// TestExp1PanicsOnArityMismatch checks the box/expression arity check
// holds at every worker count.
func TestExp1PanicsOnArityMismatch(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "core: exp1 box arity 5 != expression arity 3") {
					t.Fatalf("panic %q, want the arity message", msg)
				}
			}()
			RunExp1(simRunner(expr.NewAATB(), 0.10), Exp1Config{Box: expr.PaperBox(5), MaxSamples: 10, Seed: 1}, w)
		})
	}
}

func TestExp2ParallelMatchesSequential(t *testing.T) {
	r := simRunner(expr.NewAATB(), 0.05)
	exp1 := RunExp1(simRunner(expr.NewAATB(), 0.10), Exp1Config{
		Box: expr.PaperBox(3), TargetAnomalies: 3, MaxSamples: 300, Seed: 7,
	}, 1)
	var origins []expr.Instance
	for _, a := range exp1.Anomalies {
		origins = append(origins, a.Inst)
	}
	cfg := DefaultExp2Config(expr.PaperBox(3))
	seq := RunExp2(r, origins, cfg, 1)
	for _, w := range testWorkers[1:] {
		par := RunExp2(r, origins, cfg, w)
		if seq.TotalSamples != par.TotalSamples || len(seq.Lines) != len(par.Lines) {
			t.Fatalf("workers %d: seq %d lines/%d samples, par %d lines/%d samples", w,
				len(seq.Lines), seq.TotalSamples, len(par.Lines), par.TotalSamples)
		}
		for i := range seq.Lines {
			s, p := seq.Lines[i], par.Lines[i]
			if s.Dim != p.Dim || s.Thickness != p.Thickness ||
				s.BoundaryLo != p.BoundaryLo || s.BoundaryHi != p.BoundaryHi {
				t.Fatalf("workers %d: line %d differs: seq %+v, par %+v", w, i,
					[4]int{s.Dim, s.Thickness, s.BoundaryLo, s.BoundaryHi},
					[4]int{p.Dim, p.Thickness, p.BoundaryLo, p.BoundaryHi})
			}
			if len(s.Samples) != len(p.Samples) {
				t.Fatalf("workers %d: line %d sample counts differ", w, i)
			}
		}
	}
}

func TestExp3ParallelMatchesSequential(t *testing.T) {
	r5 := simRunner(expr.NewAATB(), 0.05)
	exp1 := RunExp1(simRunner(expr.NewAATB(), 0.10), Exp1Config{
		Box: expr.PaperBox(3), TargetAnomalies: 2, MaxSamples: 200, Seed: 8,
	}, 1)
	var origins []expr.Instance
	for _, a := range exp1.Anomalies {
		origins = append(origins, a.Inst)
	}
	exp2 := RunExp2(r5, origins, DefaultExp2Config(expr.PaperBox(3)), 1)
	seq := RunExp3(r5, exp2, Exp3Config{Threshold: 0.05}, 1)
	for _, w := range testWorkers[1:] {
		par := RunExp3(r5, exp2, Exp3Config{Threshold: 0.05}, w)
		if seq.Confusion != par.Confusion {
			t.Fatalf("workers %d: confusion differs: seq %+v, par %+v", w, seq.Confusion, par.Confusion)
		}
		if seq.DistinctCalls != par.DistinctCalls {
			t.Fatalf("workers %d: distinct calls: seq %d, par %d", w, seq.DistinctCalls, par.DistinctCalls)
		}
	}
}

// TestParallelMapCoversAllIndices checks the experiment drivers' fan-out
// (par.For over resolveWorkers) evaluates every index exactly once,
// including the empty range and the single-worker fallback.
func TestParallelMapCoversAllIndices(t *testing.T) {
	hits := make([]int32, 100)
	var mu sync.Mutex
	par.For(100, resolveWorkers(8), func(i int) {
		mu.Lock()
		hits[i]++
		mu.Unlock()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	// Degenerate cases.
	par.For(0, resolveWorkers(4), func(i int) { t.Error("should not be called") })
	called := 0
	par.For(3, resolveWorkers(1), func(i int) { called++ })
	if called != 3 {
		t.Fatalf("sequential fallback called %d times", called)
	}
}

func TestResolveWorkers(t *testing.T) {
	if resolveWorkers(0) != 1 || resolveWorkers(-3) != 1 {
		t.Fatal("non-positive workers should resolve to 1")
	}
	if resolveWorkers(2) != 2 {
		t.Fatal("small worker counts pass through")
	}
	if resolveWorkers(1<<20) > 1<<12 {
		t.Fatal("absurd worker counts should be capped")
	}
}
