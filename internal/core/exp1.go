package core

import (
	"fmt"

	"lamb/internal/expr"
	"lamb/internal/par"
	"lamb/internal/xrand"
)

// Exp1Config parameterises Experiment 1 (random search, paper §3.4.1).
type Exp1Config struct {
	// Box is the search space; the paper uses 20 ≤ dᵢ ≤ 1200.
	Box expr.Box
	// TargetAnomalies stops the search once this many *distinct*
	// anomalies have been found (100 for the chain, 1000 for AAᵀB).
	TargetAnomalies int
	// MaxSamples bounds the search (a safety net; 0 means 10⁶).
	MaxSamples int
	// Seed makes the sampling stream reproducible.
	Seed uint64
	// Progress, if non-nil, is called every ProgressEvery samples.
	Progress      func(samples, anomalies int)
	ProgressEvery int
}

// Exp1Result is the outcome of Experiment 1.
type Exp1Result struct {
	// Samples is the number of instances drawn (with replacement).
	Samples int
	// Anomalies holds the distinct anomalous instances in discovery
	// order, with their full measurements.
	Anomalies []InstanceResult
	// Abundance is the fraction of samples classified anomalous
	// (duplicate draws of a known anomaly still count as anomalous
	// samples, as in any abundance estimate from sampling with
	// replacement).
	Abundance float64
}

// RunExp1 searches the box uniformly at random for anomalies until the
// target count of distinct anomalies is reached or MaxSamples is
// exhausted. The classification threshold comes from the Runner (the
// paper uses a 10% time score for this experiment).
//
// Instances are drawn in batches of 4 × workers (one at a time at one
// worker), evaluated concurrently, and classified in draw order; the
// search stops at exactly the sample where a one-by-one search would,
// and the surplus evaluations of the final batch are discarded.
func RunExp1(r *Runner, cfg Exp1Config, workers int) Exp1Result {
	if err := cfg.Box.Validate(); err != nil {
		panic(err)
	}
	if cfg.Box.Arity() != r.Expr.Arity() {
		panic(fmt.Sprintf("core: exp1 box arity %d != expression arity %d", cfg.Box.Arity(), r.Expr.Arity()))
	}
	maxSamples := cfg.MaxSamples
	if maxSamples <= 0 {
		maxSamples = 1_000_000
	}
	target := cfg.TargetAnomalies
	if target <= 0 {
		target = 100
	}
	w := resolveWorkers(workers)
	batch := 1
	if w > 1 {
		batch = 4 * w
	}
	rng := xrand.NewLabeled(cfg.Seed, "exp1/"+r.Expr.Name())
	seen := make(map[string]bool)
	var out Exp1Result
	anomalousSamples := 0
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
