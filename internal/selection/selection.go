// Package selection implements algorithm-selection strategies for linear
// algebra expressions and an evaluation harness that measures their
// regret against the empirical optimum.
//
// The paper's subject is the MinFlops strategy (used by Linnea, Armadillo,
// and Julia): pick an algorithm with the minimum FLOP count. Its failure
// cases are exactly the anomalies the paper studies. The paper's
// conclusion conjectures that combining FLOP counts with kernel
// performance profiles "may be able to predict a large fraction of
// anomalies" — the MinPredicted strategy implements that conjecture, and
// the Evaluate harness quantifies how much of the anomaly-induced regret
// it recovers.
package selection

import (
	"context"
	"fmt"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/profile"
	"lamb/internal/stats"
	"lamb/internal/xrand"
)

// Strategy selects one algorithm from a set.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Choose returns the index of the selected algorithm.
	Choose(algs []expr.Algorithm) int
}

// MinFlops selects an algorithm with the minimum FLOP count — the
// discriminant the paper evaluates (ties broken by lowest index, matching
// a deterministic best-first search).
type MinFlops struct{}

// Name implements Strategy.
func (MinFlops) Name() string { return "min-flops" }

// Choose implements Strategy.
func (MinFlops) Choose(algs []expr.Algorithm) int {
	if len(algs) == 0 {
		panic("selection: choose from empty set")
	}
	best := 0
	bestF := algs[0].Flops()
	for i := 1; i < len(algs); i++ {
		if f := algs[i].Flops(); f < bestF {
			best, bestF = i, f
		}
	}
	return best
}

// MinPredicted selects the algorithm whose predicted execution time — the
// sum over its calls of profile-interpolated times — is minimal. This is
// the paper's proposed improvement: FLOP counts combined with kernel
// performance profiles.
type MinPredicted struct {
	Profiles *profile.Set
}

// Name implements Strategy.
func (MinPredicted) Name() string { return "min-predicted" }

// Choose implements Strategy.
func (s MinPredicted) Choose(algs []expr.Algorithm) int {
	if len(algs) == 0 {
		panic("selection: choose from empty set")
	}
	return ArgMin(Predict(s, algs))
}

// ArgMin returns the position of the strict minimum of xs, first wins:
// the deterministic tie-break every strategy in this package uses.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		panic("selection: choose from empty set")
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

// PredictAlgorithm implements Predictor: the algorithm's predicted time
// is the sum of its calls' profile-interpolated times.
func (s MinPredicted) PredictAlgorithm(a *expr.Algorithm) float64 {
	var sum float64
	for _, c := range a.Calls {
		sum += s.Profiles.PredictCall(c)
	}
	return sum
}

// Oracle selects the empirically fastest algorithm by measuring every
// algorithm with the timer — the brute-force baseline available only when
// instance sizes are known and measurement is affordable.
type Oracle struct {
	Timer *exec.Timer
}

// Name implements Strategy.
func (Oracle) Name() string { return "oracle" }

// Choose implements Strategy.
func (s Oracle) Choose(algs []expr.Algorithm) int {
	return ArgMin(measuredTotals(s.Timer, algs))
}

// measuredTotals measures every algorithm one instance per repetition
// and returns the median totals, in set order.
func measuredTotals(t *exec.Timer, algs []expr.Algorithm) []float64 {
	ms, err := t.MeasureSet(context.Background(), algs)
	if err != nil {
		panic(err) // per-instance measurement under a background context cannot fail
	}
	totals := make([]float64, len(ms))
	for i := range ms {
		totals[i] = ms[i].Total
	}
	return totals
}

// Report summarises a strategy's behaviour over a set of instances.
type Report struct {
	Strategy string
	// Instances is the number of evaluated instances.
	Instances int
	// OptimalPicks counts instances where the strategy picked a fastest
	// algorithm (time within Tolerance of the best).
	OptimalPicks int
	// Regret summarises (T_chosen − T_best)/T_best across instances.
	Regret stats.Summary
	// WorstInstance is the instance with the largest regret.
	WorstInstance expr.Instance
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%-13s optimal %4d/%d  regret mean %5.1f%% max %5.1f%%",
		r.Strategy, r.OptimalPicks, r.Instances, 100*r.Regret.Mean(), 100*r.Regret.Max)
}

// Config parameterises Evaluate.
type Config struct {
	// Box is the instance space to sample.
	Box expr.Box
	// Instances is the number of sampled instances.
	Instances int
	// Seed drives the sampling stream.
	Seed uint64
	// Tolerance is the relative slack within which a pick counts as
	// optimal (default 0.02).
	Tolerance float64
}

// Evaluate measures the regret of each strategy on uniformly sampled
// instances: for every instance all algorithms are measured with the
// timer, and each strategy's pick is compared with the fastest. An
// Oracle on the same timer picks from those totals rather than
// measuring the instance a second time.
func Evaluate(e expr.Expression, t *exec.Timer, strategies []Strategy, cfg Config) []Report {
	if err := cfg.Box.Validate(); err != nil {
		panic(err)
	}
	if cfg.Instances <= 0 {
		panic("selection: Instances must be positive")
	}
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 0.02
	}
	rng := xrand.NewLabeled(cfg.Seed, "selection/"+e.Name())
	reports := make([]Report, len(strategies))
	for i, s := range strategies {
		reports[i].Strategy = s.Name()
	}
	for n := 0; n < cfg.Instances; n++ {
		inst := cfg.Box.Sample(rng)
		algs := e.Algorithms(inst)
		times := measuredTotals(t, algs)
		bestT := times[ArgMin(times)]
		for i, s := range strategies {
			var pick int
			if o, ok := s.(Oracle); ok && o.Timer == t {
				pick = ArgMin(times)
			} else {
				pick = s.Choose(algs)
			}
			regret := (times[pick] - bestT) / bestT
			if regret < 0 {
				regret = 0
			}
			r := &reports[i]
			r.Instances++
			if times[pick] <= bestT*(1+tol) {
				r.OptimalPicks++
			}
			if regret > r.Regret.Max || r.Regret.N == 0 {
				r.WorstInstance = inst.Clone()
			}
			r.Regret.Add(regret)
		}
	}
	return reports
}
