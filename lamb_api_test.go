package lamb_test

import (
	"math"
	"testing"

	"lamb"
)

// These tests exercise the public facade end-to-end — the same API the
// examples and downstream users see.

func TestPublicQuickstartFlow(t *testing.T) {
	timer := lamb.NewSimTimer()
	runner := lamb.NewRunner(lamb.ChainABCD(), timer, 0.10)
	res := runner.Evaluate(lamb.Instance{100, 200, 300, 400, 500})
	if len(res.Times) != 6 || len(res.Flops) != 6 {
		t.Fatalf("chain evaluation sizes: %d times, %d flops", len(res.Times), len(res.Flops))
	}
	if len(res.Class.CheapestSet) == 0 || len(res.Class.FastestSet) == 0 {
		t.Fatal("classification sets empty")
	}
}

func TestPublicKnownAnomaly(t *testing.T) {
	// The quickstart example's instance must be an anomaly on the default
	// simulated machine — if calibration changes, update the example too.
	timer := lamb.NewSimTimer()
	runner := lamb.NewRunner(lamb.ChainABCD(), timer, 0.10)
	res := runner.Evaluate(lamb.Instance{761, 1063, 365, 229, 245})
	if !res.Class.Anomaly {
		t.Fatal("quickstart instance no longer anomalous — update examples/quickstart")
	}
}

func TestPublicExperimentPipeline(t *testing.T) {
	e := lamb.AATB()
	timer := lamb.NewSimTimer()
	r10 := lamb.NewRunner(e, timer, 0.10)
	exp1 := lamb.RunExperiment1(r10, lamb.Exp1Config{
		Box:             lamb.PaperBox(3),
		TargetAnomalies: 5,
		MaxSamples:      500,
		Seed:            1,
	}, 1)
	if len(exp1.Anomalies) != 5 {
		t.Fatalf("exp1 found %d anomalies", len(exp1.Anomalies))
	}
	if exp1.Abundance < 0.02 || exp1.Abundance > 0.4 {
		t.Fatalf("AATB abundance %.3f outside the plausible band", exp1.Abundance)
	}

	r5 := lamb.NewRunner(e, timer, 0.05)
	origins := []lamb.Instance{exp1.Anomalies[0].Inst, exp1.Anomalies[1].Inst}
	exp2 := lamb.RunExperiment2(r5, origins, lamb.DefaultExp2Config(lamb.PaperBox(3)), 1)
	if len(exp2.Lines) != 6 {
		t.Fatalf("exp2 produced %d lines, want 6", len(exp2.Lines))
	}
	for _, ln := range exp2.Lines {
		if ln.BoundaryLo >= ln.BoundaryHi {
			t.Fatalf("line d%d has degenerate boundaries [%d, %d]", ln.Dim, ln.BoundaryLo, ln.BoundaryHi)
		}
	}

	exp3 := lamb.RunExperiment3(r5, exp2, lamb.Exp3Config{Threshold: 0.05}, 1)
	if exp3.Confusion.Total() != exp2.TotalSamples {
		t.Fatalf("exp3 total %d != exp2 samples %d", exp3.Confusion.Total(), exp2.TotalSamples)
	}
	if exp3.Confusion.Recall() <= 0.3 {
		t.Fatalf("exp3 recall %.2f implausibly low", exp3.Confusion.Recall())
	}
}

func TestPublicClassify(t *testing.T) {
	cl := lamb.Classify([]float64{10, 20}, []float64{2, 1}, 0.10)
	if !cl.Anomaly || cl.TimeScore != 0.5 {
		t.Fatalf("classification %+v", cl)
	}
}

func TestPublicDPAndEnumeration(t *testing.T) {
	dims := []int{30, 35, 15, 5, 10, 20, 25}
	dp, tree := lamb.MinFlopsParenthesisation(dims)
	if dp != 30250 || tree == "" {
		t.Fatalf("DP = %v, %q", dp, tree)
	}
	algs := lamb.NewChain(6).Algorithms(lamb.Instance(dims))
	if len(algs) != 120 {
		t.Fatalf("6-term chain: %d algorithms, want 120", len(algs))
	}
	best := math.Inf(1)
	for _, a := range algs {
		best = math.Min(best, a.Flops())
	}
	if best != dp {
		t.Fatalf("enumerated minimum %v != DP %v", best, dp)
	}
}

func TestPublicAlgorithmEvaluationAgreesAcrossBackends(t *testing.T) {
	// The numerical result is backend-independent (the measured backend
	// computes, the simulated one only times); EvaluateAlgorithm uses the
	// real BLAS.
	algs := lamb.AATB().Algorithms(lamb.Instance{15, 10, 12})
	inputs := map[string]*lamb.Matrix{
		"A": lamb.NewRandomMatrix(15, 10, 1),
		"B": lamb.NewRandomMatrix(15, 12, 2),
	}
	ref := lamb.EvaluateAlgorithm(&algs[0], inputs)
	for i := 1; i < len(algs); i++ {
		got := lamb.EvaluateAlgorithm(&algs[i], inputs)
		for r := 0; r < ref.Rows; r++ {
			for c := 0; c < ref.Cols; c++ {
				if math.Abs(ref.At(r, c)-got.At(r, c)) > 1e-10 {
					t.Fatalf("algorithm %d differs at (%d,%d)", i+1, r, c)
				}
			}
		}
	}
}

func TestPublicProfilesAndSelection(t *testing.T) {
	timer := lamb.NewSimTimer()
	profiles := lamb.MeasureProfiles(timer, 4)
	reports := lamb.EvaluateStrategies(lamb.AATB(), timer,
		[]lamb.Strategy{lamb.MinFlops{}, lamb.MinPredicted{Profiles: profiles}},
		lamb.SelectionConfig{Box: lamb.UniformBox(3, 50, 600), Instances: 30, Seed: 3})
	if len(reports) != 2 {
		t.Fatalf("reports %d", len(reports))
	}
	if reports[1].Regret.Mean() > reports[0].Regret.Mean() {
		t.Fatalf("min-predicted regret %.3f worse than min-flops %.3f",
			reports[1].Regret.Mean(), reports[0].Regret.Mean())
	}
}

func TestPublicEfficiencyCurve(t *testing.T) {
	curve := lamb.EfficiencyCurve(lamb.NewSimTimer(), lamb.GEMM, []int{100, 1000})
	if len(curve) != 2 || curve[1].Efficiency <= curve[0].Efficiency {
		t.Fatalf("curve %+v", curve)
	}
}

func TestPublicCustomMachineAblation(t *testing.T) {
	cfg := lamb.DefaultMachineConfig()
	cfg.DisableVariantSteps = true
	smooth := lamb.NewTimer(lamb.NewSimExecutorWith(cfg))
	rough := lamb.NewSimTimer()
	// At size 500 the textured machine pays a thread-tile imbalance
	// penalty (ceil(500/80)·80 = 560 > 500) that the smooth machine skips.
	a := lamb.EfficiencyCurve(smooth, lamb.GEMM, []int{500})[0].Efficiency
	b := lamb.EfficiencyCurve(rough, lamb.GEMM, []int{500})[0].Efficiency
	if a <= b {
		t.Fatalf("smooth machine efficiency %.3f should exceed textured %.3f at 500", a, b)
	}
}

func TestPublicBoxes(t *testing.T) {
	b := lamb.PaperBox(5)
	if b.Arity() != 5 || b.Lo[0] != 20 || b.Hi[4] != 1200 {
		t.Fatalf("paper box %+v", b)
	}
	u := lamb.UniformBox(2, 5, 9)
	if !u.Contains(lamb.Instance{5, 9}) || u.Contains(lamb.Instance{4, 9}) {
		t.Fatal("uniform box membership wrong")
	}
}
