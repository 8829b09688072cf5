package core

import (
	"lamb/internal/kernels"
	"lamb/internal/par"
	"lamb/internal/stats"
)

// Exp3Config parameterises Experiment 3 (prediction from benchmarks,
// §3.4.3).
type Exp3Config struct {
	// Threshold is the time-score threshold used for both the actual and
	// the predicted classification; the paper uses 5%.
	Threshold float64
	// Progress, if non-nil, is called every ProgressEvery samples.
	Progress      func(done, total int)
	ProgressEvery int
}

// Exp3Result is the outcome of Experiment 3.
type Exp3Result struct {
	// Confusion is the predicted-vs-actual anomaly confusion matrix over
	// all Experiment 2 line samples (the paper's Tables 1 and 2).
	Confusion stats.ConfusionMatrix
	// DistinctCalls is the number of distinct kernel calls benchmarked in
	// isolation.
	DistinctCalls int
}

// RunExp3 predicts, for every instance sampled in Experiment 2, each
// algorithm's execution time as the sum of its calls' isolated cold-cache
// benchmark times, classifies the instance from the predictions, and
// compares against the actual (measured) classification.
//
// Identical calls (same kernel, dimensions, and transposition) are
// benchmarked once: their performance cannot differ, and the paper
// likewise collects "a small set of specific calls" per sample. The
// distinct calls are collected first, in first-use order, benchmarked
// over workers, and then every sample is classified in order, so the
// result does not depend on the worker count.
func RunExp3(r *Runner, exp2 Exp2Result, cfg Exp3Config, workers int) Exp3Result {
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = 0.05
	}
	var calls []kernels.Call
	index := make(map[kernels.Key]int)
	for _, ln := range exp2.Lines {
		for _, s := range ln.Samples {
			algs := r.Expr.Algorithms(s.Res.Inst)
			for i := range algs {
				for _, c := range algs[i].Calls {
					key := c.MemoKey()
					if _, ok := index[key]; !ok {
						index[key] = len(calls)
						calls = append(calls, c)
					}
				}
			}
		}
	}
	times := make([]float64, len(calls))
	par.For(len(calls), resolveWorkers(workers), func(i int) {
		times[i] = r.Timer.MeasureCallCold(calls[i])
	})

	var out Exp3Result
	done := 0
	for _, ln := range exp2.Lines {
		for _, s := range ln.Samples {
			algs := r.Expr.Algorithms(s.Res.Inst)
			predicted := make([]float64, len(algs))
			for i := range algs {
				var sum float64
				for _, c := range algs[i].Calls {
					sum += times[index[c.MemoKey()]]
				}
				predicted[i] = sum
			}
			predClass := Classify(s.Res.Flops, predicted, threshold)
			actualClass := Classify(s.Res.Flops, s.Res.Times, threshold)
			out.Confusion.Add(actualClass.Anomaly, predClass.Anomaly)
			done++
			if cfg.Progress != nil && cfg.ProgressEvery > 0 && done%cfg.ProgressEvery == 0 {
				cfg.Progress(done, exp2.TotalSamples)
			}
		}
	}
	out.DistinctCalls = len(calls)
	return out
}
