package core

import (
	"runtime"
	"sync"

	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/par"
)

// The experiments are embarrassingly parallel: instance evaluations are
// independent and, on the simulated backend, deterministic. The parallel
// drivers in this file produce results bit-identical to their sequential
// counterparts: work is *generated* sequentially (so the sampling stream
// never changes), *evaluated* concurrently, and *folded* back in the
// sequential order.
//
// Parallel execution requires a concurrency-safe executor. The simulated
// backend is safe; the measured backend is not — and timing kernels
// concurrently on shared hardware would be methodologically wrong anyway
// (runs would contend for cores and caches), so the measured experiments
// should stay sequential just as the paper's did.

// resolveWorkers maps a config value to an actual worker count.
func resolveWorkers(w int) int {
	if w <= 0 {
		return 1
	}
	if n := runtime.GOMAXPROCS(0); w > n*4 {
		return n * 4
	}
	return w
}

// RunExp1Parallel is RunExp1 with instance evaluations spread over
// workers. Results are bit-identical to the sequential run: instances
// are drawn from the same stream in the same order, evaluated in
// batches, and classified in draw order, stopping at exactly the sample
// where the sequential search would stop (surplus evaluations from the
// final batch are discarded).
func RunExp1Parallel(r *Runner, cfg Exp1Config, workers int) Exp1Result {
	w := resolveWorkers(workers)
	if w == 1 {
		return RunExp1(r, cfg)
	}
	if err := cfg.Box.Validate(); err != nil {
		panic(err)
	}
	maxSamples := cfg.MaxSamples
	if maxSamples <= 0 {
		maxSamples = 1_000_000
	}
	target := cfg.TargetAnomalies
	if target <= 0 {
		target = 100
	}
	rng := newExp1Stream(cfg.Seed, r.Expr.Name())
	seen := make(map[string]bool)
	var out Exp1Result
	anomalousSamples := 0
	batch := 4 * w
	insts := make([]expr.Instance, 0, batch)
	results := make([]InstanceResult, batch)
	for out.Samples < maxSamples && len(out.Anomalies) < target {
		insts = insts[:0]
		for len(insts) < batch && out.Samples+len(insts) < maxSamples {
			insts = append(insts, cfg.Box.Sample(rng))
		}
		par.For(len(insts), w, func(i int) {
			results[i] = r.Evaluate(insts[i])
		})
		for i := range insts {
			out.Samples++
			res := results[i]
			if res.Class.Anomaly {
				anomalousSamples++
				key := res.Inst.String()
				if !seen[key] {
					seen[key] = true
					out.Anomalies = append(out.Anomalies, res)
				}
			}
			if cfg.Progress != nil && cfg.ProgressEvery > 0 && out.Samples%cfg.ProgressEvery == 0 {
				cfg.Progress(out.Samples, len(out.Anomalies))
			}
			if len(out.Anomalies) >= target {
				break
			}
		}
	}
	if out.Samples > 0 {
		out.Abundance = float64(anomalousSamples) / float64(out.Samples)
	}
	return out
}

// RunExp2Parallel is RunExp2 with whole-line traversals spread over
// workers. Each (anomaly, dimension) line is independent, so the result
// is bit-identical to the sequential run.
func RunExp2Parallel(r *Runner, anomalies []expr.Instance, cfg Exp2Config, workers int) Exp2Result {
	w := resolveWorkers(workers)
	if w == 1 {
		return RunExp2(r, anomalies, cfg)
	}
	if err := cfg.Box.Validate(); err != nil {
		panic(err)
	}
	if cfg.Step <= 0 || cfg.EndRun <= 0 {
		panic("core: exp2 step and end run must be positive")
	}
	arity := r.Expr.Arity()
	lines := make([]Line, len(anomalies)*arity)
	originRes := make([]InstanceResult, len(anomalies))
	par.For(len(anomalies), w, func(i int) {
		originRes[i] = r.Evaluate(anomalies[i])
	})
	done := 0
	var mu sync.Mutex
	par.For(len(lines), w, func(li int) {
		ai, dim := li/arity, li%arity
		lines[li] = traverseLine(r, anomalies[ai], originRes[ai], dim, cfg)
		if cfg.Progress != nil {
			mu.Lock()
			done++
			cfg.Progress(done, len(lines))
			mu.Unlock()
		}
	})
	var out Exp2Result
	out.Lines = lines
	for i := range lines {
		out.TotalSamples += len(lines[i].Samples)
	}
	return out
}

// RunExp3Parallel is RunExp3 with the distinct-call benchmarking phase
// spread over workers: all distinct calls are collected first, then
// benchmarked concurrently, then every sample is classified
// sequentially. Bit-identical to the sequential run.
func RunExp3Parallel(r *Runner, exp2 Exp2Result, cfg Exp3Config, workers int) Exp3Result {
	w := resolveWorkers(workers)
	if w == 1 {
		return RunExp3(r, exp2, cfg)
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = 0.05
	}
	// Phase 1: collect the distinct calls.
	type callEntry struct {
		key  kernels.Key
		call kernels.Call
	}
	var entries []callEntry
	index := make(map[kernels.Key]int)
	for _, ln := range exp2.Lines {
		for _, s := range ln.Samples {
			algs := r.Expr.Algorithms(s.Res.Inst)
			for i := range algs {
				for _, c := range algs[i].Calls {
					key := c.MemoKey()
					if _, ok := index[key]; !ok {
						index[key] = len(entries)
						entries = append(entries, callEntry{key: key, call: c})
					}
				}
			}
		}
	}
	// Phase 2: benchmark them concurrently.
	times := make([]float64, len(entries))
	par.For(len(entries), w, func(i int) {
		times[i] = r.Timer.MeasureCallCold(entries[i].call)
	})
	// Phase 3: classify every sample.
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
	out.DistinctCalls = len(entries)
	return out
}
