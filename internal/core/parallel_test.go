package core

import (
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

func TestExp1ParallelMatchesSequential(t *testing.T) {
	cfg := Exp1Config{
		Box:             expr.PaperBox(3),
		TargetAnomalies: 8,
		MaxSamples:      400,
		Seed:            5,
	}
	seq := RunExp1(simRunner(expr.NewAATB(), 0.10), cfg)
	par := RunExp1Parallel(simRunner(expr.NewAATB(), 0.10), cfg, 4)
	if seq.Samples != par.Samples {
		t.Fatalf("samples: seq %d, par %d", seq.Samples, par.Samples)
	}
	if seq.Abundance != par.Abundance {
		t.Fatalf("abundance: seq %v, par %v", seq.Abundance, par.Abundance)
	}
	if len(seq.Anomalies) != len(par.Anomalies) {
		t.Fatalf("anomalies: seq %d, par %d", len(seq.Anomalies), len(par.Anomalies))
	}
	for i := range seq.Anomalies {
		if seq.Anomalies[i].Inst.String() != par.Anomalies[i].Inst.String() {
			t.Fatalf("anomaly %d: seq %v, par %v", i, seq.Anomalies[i].Inst, par.Anomalies[i].Inst)
		}
		if seq.Anomalies[i].Class.TimeScore != par.Anomalies[i].Class.TimeScore {
			t.Fatalf("anomaly %d scores differ", i)
		}
	}
}

func TestExp1ParallelSingleWorkerDelegates(t *testing.T) {
	cfg := Exp1Config{Box: expr.PaperBox(3), TargetAnomalies: 2, MaxSamples: 100, Seed: 6}
	seq := RunExp1(simRunner(expr.NewAATB(), 0.10), cfg)
	par := RunExp1Parallel(simRunner(expr.NewAATB(), 0.10), cfg, 0)
	if seq.Samples != par.Samples || len(seq.Anomalies) != len(par.Anomalies) {
		t.Fatal("workers<=1 should behave exactly like the sequential driver")
	}
}

func TestExp2ParallelMatchesSequential(t *testing.T) {
	r := simRunner(expr.NewAATB(), 0.05)
	exp1 := RunExp1(simRunner(expr.NewAATB(), 0.10), Exp1Config{
		Box: expr.PaperBox(3), TargetAnomalies: 3, MaxSamples: 300, Seed: 7,
	})
	var origins []expr.Instance
	for _, a := range exp1.Anomalies {
		origins = append(origins, a.Inst)
	}
	cfg := DefaultExp2Config(expr.PaperBox(3))
	seq := RunExp2(r, origins, cfg)
	par := RunExp2Parallel(r, origins, cfg, 4)
	if seq.TotalSamples != par.TotalSamples || len(seq.Lines) != len(par.Lines) {
		t.Fatalf("seq %d lines/%d samples, par %d lines/%d samples",
			len(seq.Lines), seq.TotalSamples, len(par.Lines), par.TotalSamples)
	}
	for i := range seq.Lines {
		s, p := seq.Lines[i], par.Lines[i]
		if s.Dim != p.Dim || s.Thickness != p.Thickness ||
			s.BoundaryLo != p.BoundaryLo || s.BoundaryHi != p.BoundaryHi {
			t.Fatalf("line %d differs: seq %+v, par %+v", i,
				[4]int{s.Dim, s.Thickness, s.BoundaryLo, s.BoundaryHi},
				[4]int{p.Dim, p.Thickness, p.BoundaryLo, p.BoundaryHi})
		}
		if len(s.Samples) != len(p.Samples) {
			t.Fatalf("line %d sample counts differ", i)
		}
	}
}

func TestExp3ParallelMatchesSequential(t *testing.T) {
	r5 := simRunner(expr.NewAATB(), 0.05)
	exp1 := RunExp1(simRunner(expr.NewAATB(), 0.10), Exp1Config{
		Box: expr.PaperBox(3), TargetAnomalies: 2, MaxSamples: 200, Seed: 8,
	})
	var origins []expr.Instance
	for _, a := range exp1.Anomalies {
		origins = append(origins, a.Inst)
	}
	exp2 := RunExp2(r5, origins, DefaultExp2Config(expr.PaperBox(3)))
	seq := RunExp3(r5, exp2, Exp3Config{Threshold: 0.05})
	par := RunExp3Parallel(r5, exp2, Exp3Config{Threshold: 0.05}, 4)
	if seq.Confusion != par.Confusion {
		t.Fatalf("confusion differs: seq %+v, par %+v", seq.Confusion, par.Confusion)
	}
	if seq.DistinctCalls != par.DistinctCalls {
		t.Fatalf("distinct calls: seq %d, par %d", seq.DistinctCalls, par.DistinctCalls)
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
