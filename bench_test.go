// Benchmarks regenerating every table and figure of the paper at reduced
// scale, plus the ablations called out in DESIGN.md. Each benchmark runs
// a deterministic miniature of the corresponding experiment and attaches
// the headline quantity (abundance, recall, regret, …) as a custom
// metric, so `go test -bench=.` doubles as a smoke reproduction.
//
// The full paper-scale runs are produced by `go run ./cmd/lamb all
// -scale paper`; EXPERIMENTS.md records the paper-vs-measured comparison.
package lamb_test

import (
	"io"
	"sync"
	"testing"

	"lamb"
	"lamb/internal/report"
)

// benchTimer returns a fresh simulated timer with the paper's protocol.
func benchTimer() *lamb.Timer { return lamb.NewSimTimer() }

// ---------------------------------------------------------------------
// Figure 1: kernel efficiency vs size.

func BenchmarkFigure1KernelEfficiency(b *testing.B) {
	timer := benchTimer()
	sizes := []int{50, 100, 200, 400, 800, 1600, 3000}
	var last []lamb.CurvePoint
	for i := 0; i < b.N; i++ {
		for _, k := range []lamb.KernelKind{lamb.GEMM, lamb.SYRK, lamb.SYMM} {
			last = lamb.EfficiencyCurve(timer, k, sizes)
		}
	}
	b.ReportMetric(last[len(last)-1].Efficiency, "plateau-eff")
}

// ---------------------------------------------------------------------
// Figures 3 and 5: algorithm enumeration.

func BenchmarkEnumerateChain(b *testing.B) {
	inst := lamb.Instance{331, 279, 338, 854, 427}
	chain := lamb.ChainABCD()
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(chain.Algorithms(inst))
	}
	b.ReportMetric(float64(n), "algorithms")
}

func BenchmarkEnumerateAATB(b *testing.B) {
	inst := lamb.Instance{227, 260, 549}
	aatb := lamb.AATB()
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(aatb.Algorithms(inst))
	}
	b.ReportMetric(float64(n), "algorithms")
}

// ---------------------------------------------------------------------
// Experiment 1 (Figures 6 and 9): random search for anomalies.

func exp1Mini(e lamb.Expression, maxSamples int) lamb.Exp1Result {
	runner := lamb.NewRunner(e, benchTimer(), 0.10)
	return lamb.RunExperiment1(runner, lamb.Exp1Config{
		Box:             lamb.PaperBox(e.Arity()),
		TargetAnomalies: 1 << 30,
		MaxSamples:      maxSamples,
		Seed:            42,
	}, 1)
}

func BenchmarkExp1Chain(b *testing.B) {
	var res lamb.Exp1Result
	for i := 0; i < b.N; i++ {
		res = exp1Mini(lamb.ChainABCD(), 2000)
	}
	b.ReportMetric(100*res.Abundance, "abundance-%")
}

func BenchmarkExp1AATB(b *testing.B) {
	var res lamb.Exp1Result
	for i := 0; i < b.N; i++ {
		res = exp1Mini(lamb.AATB(), 800)
	}
	b.ReportMetric(100*res.Abundance, "abundance-%")
}

// ---------------------------------------------------------------------
// Experiment 2 (Figures 7 and 10): regions around anomalies. The
// anomaly origins are discovered once and shared across iterations.

var (
	originsOnce  sync.Once
	chainOrigins []lamb.Instance
	aatbOrigins  []lamb.Instance
)

func origins(b *testing.B) ([]lamb.Instance, []lamb.Instance) {
	originsOnce.Do(func() {
		for _, a := range exp1Mini(lamb.ChainABCD(), 6000).Anomalies {
			chainOrigins = append(chainOrigins, a.Inst)
		}
		for _, a := range exp1Mini(lamb.AATB(), 400).Anomalies {
			aatbOrigins = append(aatbOrigins, a.Inst)
		}
	})
	if len(chainOrigins) == 0 || len(aatbOrigins) == 0 {
		b.Fatal("no anomalies found for region benchmarks")
	}
	return chainOrigins, aatbOrigins
}

func exp2Mini(e lamb.Expression, anoms []lamb.Instance, cap int) lamb.Exp2Result {
	runner := lamb.NewRunner(e, benchTimer(), 0.05)
	if len(anoms) > cap {
		anoms = anoms[:cap]
	}
	return lamb.RunExperiment2(runner, anoms, lamb.DefaultExp2Config(lamb.PaperBox(e.Arity())), 1)
}

func BenchmarkExp2Chain(b *testing.B) {
	chain, _ := origins(b)
	var res lamb.Exp2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = exp2Mini(lamb.ChainABCD(), chain, 3)
	}
	b.ReportMetric(float64(res.TotalSamples), "line-samples")
}

func BenchmarkExp2AATB(b *testing.B) {
	_, aatb := origins(b)
	var res lamb.Exp2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = exp2Mini(lamb.AATB(), aatb, 5)
	}
	b.ReportMetric(float64(res.TotalSamples), "line-samples")
}

// Figures 8 and 11: per-algorithm efficiency rendered along the lines.

func benchLines(b *testing.B, e lamb.Expression, anoms []lamb.Instance) {
	res := exp2Mini(e, anoms, 2)
	peak := benchTimer().Exec.Peak()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for li := range res.Lines {
			ln := &res.Lines[li]
			if len(ln.Samples) == 0 {
				continue
			}
			nAlgs := len(ln.Samples[0].Res.Times)
			xs := make([]int, len(ln.Samples))
			for ai := 0; ai < nAlgs; ai++ {
				ys := make([]float64, len(ln.Samples))
				for si, s := range ln.Samples {
					xs[si] = s.Coord
					ys[si] = s.Res.Flops[ai] / (s.Res.Times[ai] * peak)
				}
				if err := report.Line(io.Discard, xs, ys, 0, 1, 8, "alg"); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(res.Lines)), "lines")
}

func BenchmarkExp2ChainLines(b *testing.B) {
	chain, _ := origins(b)
	benchLines(b, lamb.ChainABCD(), chain)
}

func BenchmarkExp2AATBLines(b *testing.B) {
	_, aatb := origins(b)
	benchLines(b, lamb.AATB(), aatb)
}

// ---------------------------------------------------------------------
// Experiment 3 (Tables 1 and 2): prediction from benchmarks.

func benchExp3(b *testing.B, e lamb.Expression, anoms []lamb.Instance) {
	exp2 := exp2Mini(e, anoms, 3)
	runner := lamb.NewRunner(e, benchTimer(), 0.05)
	var res lamb.Exp3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = lamb.RunExperiment3(runner, exp2, lamb.Exp3Config{Threshold: 0.05}, 1)
	}
	b.ReportMetric(100*res.Confusion.Recall(), "recall-%")
	b.ReportMetric(100*res.Confusion.Precision(), "precision-%")
}

func BenchmarkExp3Chain(b *testing.B) {
	chain, _ := origins(b)
	benchExp3(b, lamb.ChainABCD(), chain)
}

func BenchmarkExp3AATB(b *testing.B) {
	_, aatb := origins(b)
	benchExp3(b, lamb.AATB(), aatb)
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md): design-choice studies on the machine model.

// BenchmarkAblationNoInterKernelCache removes the inter-kernel cache
// effects: Experiment 3's prediction should become near-perfect for the
// chain, quantifying how much of the misprediction warm caches explain.
func BenchmarkAblationNoInterKernelCache(b *testing.B) {
	cfg := lamb.DefaultMachineConfig()
	cfg.DisableWarmCache = true
	cfg.BenchBias = 0
	for k := range cfg.Kernels {
		cfg.Kernels[k].BenchBiasMean = 0
	}
	timer := lamb.NewTimer(lamb.NewSimExecutorWith(cfg))
	runner := lamb.NewRunner(lamb.ChainABCD(), timer, 0.10)
	res := lamb.RunExperiment1(runner, lamb.Exp1Config{
		Box: lamb.PaperBox(5), TargetAnomalies: 1 << 30, MaxSamples: 6000, Seed: 42,
	}, 1)
	var origins []lamb.Instance
	for _, a := range res.Anomalies {
		origins = append(origins, a.Inst)
	}
	runner5 := lamb.NewRunner(lamb.ChainABCD(), timer, 0.05)
	var out lamb.Exp3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp2 := lamb.RunExperiment2(runner5, origins, lamb.DefaultExp2Config(lamb.PaperBox(5)), 1)
		out = lamb.RunExperiment3(runner5, exp2, lamb.Exp3Config{Threshold: 0.05}, 1)
	}
	b.ReportMetric(100*out.Confusion.Recall(), "recall-%")
}

// BenchmarkAblationSmoothEfficiency removes variant steps and the
// partition sawtooth: chain anomalies (driven by efficiency texture)
// should largely disappear.
func BenchmarkAblationSmoothEfficiency(b *testing.B) {
	cfg := lamb.DefaultMachineConfig()
	cfg.DisableVariantSteps = true
	timer := lamb.NewTimer(lamb.NewSimExecutorWith(cfg))
	runner := lamb.NewRunner(lamb.ChainABCD(), timer, 0.10)
	var res lamb.Exp1Result
	for i := 0; i < b.N; i++ {
		res = lamb.RunExperiment1(runner, lamb.Exp1Config{
			Box: lamb.PaperBox(5), TargetAnomalies: 1 << 30, MaxSamples: 2000, Seed: 42,
		}, 1)
	}
	b.ReportMetric(100*res.Abundance, "abundance-%")
}

// BenchmarkAblationThresholdSweep reports AAᵀB abundance as the
// time-score threshold varies — the sensitivity of the paper's headline.
func BenchmarkAblationThresholdSweep(b *testing.B) {
	for _, th := range []struct {
		name string
		v    float64
	}{{"2.5%", 0.025}, {"5%", 0.05}, {"10%", 0.10}, {"20%", 0.20}} {
		b.Run(th.name, func(b *testing.B) {
			runner := lamb.NewRunner(lamb.AATB(), benchTimer(), th.v)
			var res lamb.Exp1Result
			for i := 0; i < b.N; i++ {
				res = lamb.RunExperiment1(runner, lamb.Exp1Config{
					Box: lamb.PaperBox(3), TargetAnomalies: 1 << 30, MaxSamples: 600, Seed: 42,
				}, 1)
			}
			b.ReportMetric(100*res.Abundance, "abundance-%")
		})
	}
}

// BenchmarkSelectionStrategies compares the FLOPs-only discriminant with
// the FLOPs+profiles discriminant (the paper's concluding conjecture).
func BenchmarkSelectionStrategies(b *testing.B) {
	timer := benchTimer()
	profiles := lamb.MeasureProfiles(timer, 6)
	strategies := []lamb.Strategy{lamb.MinFlops{}, lamb.MinPredicted{Profiles: profiles}}
	var reports []lamb.SelectionReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports = lamb.EvaluateStrategies(lamb.AATB(), timer, strategies, lamb.SelectionConfig{
			Box: lamb.PaperBox(3), Instances: 60, Seed: 7,
		})
	}
	b.ReportMetric(100*reports[0].Regret.Mean(), "minflops-regret-%")
	b.ReportMetric(100*reports[1].Regret.Mean(), "minpred-regret-%")
}

// BenchmarkConjectureLstSq tests the paper's §5 conjecture that more
// complex, more-kernel expressions have more anomalies: the regularised
// least-squares expression mixes six kernel kinds. Its abundance should
// exceed the GEMM-only chain's by an order of magnitude (though the
// algorithms' shared factorisation tail keeps it below AAᵀB's).
func BenchmarkConjectureLstSq(b *testing.B) {
	var lstsq, chain lamb.Exp1Result
	for i := 0; i < b.N; i++ {
		lstsq = exp1Mini(lamb.LstSq(), 1500)
		chain = exp1Mini(lamb.ChainABCD(), 1500)
	}
	b.ReportMetric(100*lstsq.Abundance, "lstsq-abundance-%")
	b.ReportMetric(100*chain.Abundance, "chain-abundance-%")
}

// BenchmarkCrossMachineAnomalyOverlap quantifies the paper's portability
// claim: "A different setup will affect the performance profiles of the
// kernels, which, in turn, will translate into the disappearance of some
// anomalies and the surge of new ones." The same AAᵀB sample set is
// classified on two calibrated machines and the overlap of their anomaly
// sets reported (low overlap = anomalies are machine properties).
func BenchmarkCrossMachineAnomalyOverlap(b *testing.B) {
	run := func(cfg lamb.MachineConfig) map[string]bool {
		timer := lamb.NewTimer(lamb.NewSimExecutorWith(cfg))
		runner := lamb.NewRunner(lamb.AATB(), timer, 0.10)
		res := lamb.RunExperiment1(runner, lamb.Exp1Config{
			Box: lamb.PaperBox(3), TargetAnomalies: 1 << 30, MaxSamples: 1200, Seed: 42,
		}, 1)
		set := make(map[string]bool, len(res.Anomalies))
		for _, a := range res.Anomalies {
			set[a.Inst.String()] = true
		}
		return set
	}
	var onA, onB, both int
	for i := 0; i < b.N; i++ {
		setA := run(lamb.DefaultMachineConfig())
		setB := run(lamb.AltMachineConfig())
		onA, onB, both = len(setA), len(setB), 0
		for k := range setA {
			if setB[k] {
				both++
			}
		}
	}
	union := onA + onB - both
	if union > 0 {
		b.ReportMetric(100*float64(both)/float64(union), "jaccard-overlap-%")
	}
	b.ReportMetric(float64(onA), "anomalies-machine-A")
	b.ReportMetric(float64(onB), "anomalies-machine-B")
}

// BenchmarkParallelSpeedup measures the experiment driver at one worker
// against as many workers as the cores allow, on the same workload.
func BenchmarkParallelSpeedup(b *testing.B) {
	cfg := lamb.Exp1Config{
		Box: lamb.PaperBox(3), TargetAnomalies: 1 << 30, MaxSamples: 600, Seed: 42,
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runner := lamb.NewRunner(lamb.AATB(), benchTimer(), 0.10)
			lamb.RunExperiment1(runner, cfg, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runner := lamb.NewRunner(lamb.AATB(), benchTimer(), 0.10)
			lamb.RunExperiment1(runner, cfg, 0x7fffffff) // capped to cores
		}
	})
}

// ---------------------------------------------------------------------
// The measured backend end-to-end: a tiny Experiment 1 timing the real
// pure-Go BLAS kernels.

func BenchmarkMeasuredBackendExp1AATB(b *testing.B) {
	timer := lamb.NewTimer(lamb.NewMeasuredExecutor())
	timer.Reps = 3
	runner := lamb.NewRunner(lamb.AATB(), timer, 0.10)
	var res lamb.Exp1Result
	for i := 0; i < b.N; i++ {
		res = lamb.RunExperiment1(runner, lamb.Exp1Config{
			Box: lamb.UniformBox(3, 16, 128), TargetAnomalies: 1 << 30, MaxSamples: 10, Seed: 42,
		}, 1)
	}
	b.ReportMetric(float64(len(res.Anomalies)), "anomalies")
}
