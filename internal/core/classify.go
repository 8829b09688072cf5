// Package core implements the paper's primary contribution: the anomaly
// study. It classifies problem instances as anomalies (instances where no
// minimum-FLOP algorithm is among the fastest), quantifies anomaly
// severity with the paper's time and FLOP scores, and drives the three
// experiments — random search (Experiment 1), axis-aligned region
// traversal (Experiment 2), and prediction from isolated kernel
// benchmarks (Experiment 3).
package core

import (
	"context"
	"fmt"
	"runtime"

	"lamb/internal/exec"
	"lamb/internal/expr"
)

// Classification is the paper's §3.3 labelling of one instance.
type Classification struct {
	// CheapestSet holds the indices of the algorithms with the minimum
	// FLOP count (ties are exact: FLOP counts are integer-valued
	// formulas).
	CheapestSet []int
	// FastestSet holds the indices of the algorithms achieving the
	// minimum measured time (ties are exact float equality; in practice a
	// single index).
	FastestSet []int
	// TimeScore is (T_cheapest − T_fastest) / T_cheapest, where
	// T_cheapest is the best time among the cheapest algorithms. Zero
	// when a cheapest algorithm is fastest.
	TimeScore float64
	// FlopScore is (F_fastest − F_cheapest) / F_fastest, where F_fastest
	// is the lowest FLOP count among the fastest algorithms.
	FlopScore float64
	// Anomaly reports whether the instance is an anomaly at the
	// classification threshold: the cheapest and fastest sets are
	// disjoint and the time score exceeds the threshold.
	Anomaly bool
}

// Classify labels an instance from its per-algorithm FLOP counts and
// measured times, using the given time-score threshold (the paper uses
// 10% for Experiment 1 and 5% for Experiments 2 and 3).
func Classify(flops, times []float64, threshold float64) Classification {
	if len(flops) == 0 || len(flops) != len(times) {
		panic(fmt.Sprintf("core: classify with %d flop counts and %d times", len(flops), len(times)))
	}
	var c Classification
	minFlops, minTime := flops[0], times[0]
	for i := 1; i < len(flops); i++ {
		if flops[i] < minFlops {
			minFlops = flops[i]
		}
		if times[i] < minTime {
			minTime = times[i]
		}
	}
	tCheapest := -1.0
	fFastest := -1.0
	for i := range flops {
		if flops[i] == minFlops {
			c.CheapestSet = append(c.CheapestSet, i)
			if tCheapest < 0 || times[i] < tCheapest {
				tCheapest = times[i]
			}
		}
		if times[i] == minTime {
			c.FastestSet = append(c.FastestSet, i)
			if fFastest < 0 || flops[i] < fFastest {
				fFastest = flops[i]
			}
		}
	}
	if tCheapest > 0 {
		c.TimeScore = (tCheapest - minTime) / tCheapest
	}
	if fFastest > 0 {
		c.FlopScore = (fFastest - minFlops) / fFastest
	}
	c.Anomaly = c.TimeScore > threshold
	return c
}

// InstanceResult bundles everything measured about one instance: the
// algorithm set's FLOP counts, the median total and per-call times, and
// the classification.
type InstanceResult struct {
	Inst    expr.Instance
	Flops   []float64
	Times   []float64
	PerCall [][]float64
	Class   Classification
}

// Runner evaluates instances of an expression on an executor: it
// enumerates the algorithm set, measures every algorithm with the
// timer's repetition protocol, and classifies the instance.
type Runner struct {
	Expr  expr.Expression
	Timer *exec.Timer
	// Threshold is the time-score threshold used for classification.
	Threshold float64
}

// NewRunner returns a Runner with the given threshold.
func NewRunner(e expr.Expression, t *exec.Timer, threshold float64) *Runner {
	return &Runner{Expr: e, Timer: t, Threshold: threshold}
}

// Evaluate measures and classifies one instance.
func (r *Runner) Evaluate(inst expr.Instance) InstanceResult {
	algs := r.Expr.Algorithms(inst)
	ms, err := r.Timer.MeasureSet(context.Background(), algs)
	if err != nil {
		panic(err) // per-instance measurement under a background context cannot fail
	}
	res := InstanceResult{
		Inst:    inst.Clone(),
		Flops:   make([]float64, len(algs)),
		Times:   make([]float64, len(algs)),
		PerCall: make([][]float64, len(algs)),
	}
	for i := range algs {
		res.Flops[i] = algs[i].Flops()
		res.Times[i] = ms[i].Total
		res.PerCall[i] = ms[i].PerCall
	}
	res.Class = Classify(res.Flops, res.Times, r.Threshold)
	return res
}

// The experiments are embarrassingly parallel: instance evaluations are
// independent and, on the simulated backend, deterministic. Each driver
// therefore generates its work in order (so the sampling stream never
// changes), evaluates it over par.For, and folds the results back in
// order; one worker is the serial case, and every worker count gives
// bit-identical results.
//
// More than one worker requires a concurrency-safe executor. The
// simulated backend is safe; the measured backend is not — and timing
// kernels concurrently on shared hardware would be methodologically
// wrong anyway (runs would contend for cores and caches), so measured
// experiments run at one worker, as the paper's did.

// resolveWorkers maps a workers argument to an actual worker count:
// non-positive means one, and absurd counts are capped.
func resolveWorkers(w int) int {
	if w <= 0 {
		return 1
	}
	if n := runtime.GOMAXPROCS(0); w > n*4 {
		return n * 4
	}
	return w
}
