package selection

import (
	"context"
	"strings"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/profile"
)

func simTimer() *exec.Timer {
	return &exec.Timer{Exec: exec.NewDefaultSimulated(), Reps: 3}
}

func TestMinFlopsPicksCheapest(t *testing.T) {
	algs := expr.NewAATB().Algorithms(expr.Instance{100, 200, 300})
	pick := MinFlops{}.Choose(algs)
	// Algorithms 1 and 2 tie on the minimum count; lowest index wins.
	if pick != 0 {
		t.Fatalf("pick = %d, want 0", pick)
	}
	// An instance where algorithm 5 is cheapest: d0 large, d1·d2 small.
	algs = expr.NewAATB().Algorithms(expr.Instance{1000, 30, 30})
	if pick := (MinFlops{}).Choose(algs); pick != 4 {
		t.Fatalf("pick = %d, want 4 (algorithm 5 cheapest)", pick)
	}
}

func TestMinFlopsEqualsDPOnChains(t *testing.T) {
	inst := expr.Instance{300, 40, 500, 60, 700}
	algs := expr.NewChainABCD().Algorithms(inst)
	pick := MinFlops{}.Choose(algs)
	dp, _ := expr.MinFlopsParenthesisation([]int(inst))
	if algs[pick].Flops() != dp {
		t.Fatalf("min-flops pick %v flops %v != DP optimum %v", pick, algs[pick].Flops(), dp)
	}
}

func TestOracleAgreesWithExhaustiveTiming(t *testing.T) {
	timer := simTimer()
	algs := expr.NewAATB().Algorithms(expr.Instance{150, 90, 800})
	pick := Oracle{Timer: timer}.Choose(algs)
	ms, err := timer.MeasureSet(context.Background(), algs)
	if err != nil {
		t.Fatal(err)
	}
	best, bestT := -1, 0.0
	for i, m := range ms {
		if best < 0 || m.Total < bestT {
			best, bestT = i, m.Total
		}
	}
	if pick != best {
		t.Fatalf("oracle pick %d, exhaustive best %d", pick, best)
	}
}

func TestMinPredictedBeatsMinFlopsOnAnomalies(t *testing.T) {
	// On the simulated machine, AAᵀB anomalies are abundant; the profile-
	// based strategy must recover a substantial share of the regret that
	// MinFlops leaves on the table (the paper's concluding conjecture).
	timer := simTimer()
	profiles := profile.MeasureSet(timer, 6)
	strategies := []Strategy{MinFlops{}, MinPredicted{Profiles: profiles}}
	reports := Evaluate(expr.NewAATB(), timer, strategies, Config{
		Box:       expr.PaperBox(3),
		Instances: 120,
		Seed:      7,
	})
	mf, mp := reports[0], reports[1]
	if mf.Instances != 120 || mp.Instances != 120 {
		t.Fatalf("instances %d, %d", mf.Instances, mp.Instances)
	}
	if mp.Regret.Mean() >= mf.Regret.Mean() {
		t.Fatalf("min-predicted regret %.3f should beat min-flops %.3f",
			mp.Regret.Mean(), mf.Regret.Mean())
	}
	if mp.OptimalPicks <= mf.OptimalPicks {
		t.Fatalf("min-predicted optimal picks %d should exceed min-flops %d",
			mp.OptimalPicks, mf.OptimalPicks)
	}
}

func TestOracleHasZeroRegret(t *testing.T) {
	timer := simTimer()
	reports := Evaluate(expr.NewAATB(), timer, []Strategy{Oracle{Timer: timer}}, Config{
		Box:       expr.UniformBox(3, 50, 400),
		Instances: 15,
		Seed:      3,
	})
	// The oracle picks from the totals Evaluate measured, so it is
	// always optimal.
	if reports[0].Regret.Max != 0 {
		t.Fatalf("oracle regret max %.4f, want 0", reports[0].Regret.Max)
	}
	if reports[0].OptimalPicks != 15 {
		t.Fatalf("oracle optimal picks %d/15", reports[0].OptimalPicks)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	timer := simTimer()
	cfg := Config{Box: expr.UniformBox(3, 50, 300), Instances: 10, Seed: 11}
	a := Evaluate(expr.NewAATB(), timer, []Strategy{MinFlops{}}, cfg)
	b := Evaluate(expr.NewAATB(), timer, []Strategy{MinFlops{}}, cfg)
	if a[0].Regret.Mean() != b[0].Regret.Mean() || a[0].OptimalPicks != b[0].OptimalPicks {
		t.Fatal("Evaluate not deterministic")
	}
}

func TestReportString(t *testing.T) {
	r := Report{Strategy: "min-flops", Instances: 10, OptimalPicks: 7}
	s := r.String()
	if !strings.Contains(s, "min-flops") || !strings.Contains(s, "7") {
		t.Fatalf("report string %q", s)
	}
}

func TestChoosePanicsOnEmpty(t *testing.T) {
	for _, s := range []Strategy{MinFlops{}, MinPredicted{}, Oracle{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on empty set", s.Name())
				}
			}()
			s.Choose(nil)
		}()
	}
}

func TestEvaluatePanicsOnBadConfig(t *testing.T) {
	timer := simTimer()
	for _, cfg := range []Config{
		{Box: expr.Box{}, Instances: 5},
		{Box: expr.UniformBox(3, 20, 100), Instances: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			Evaluate(expr.NewAATB(), timer, []Strategy{MinFlops{}}, cfg)
		}()
	}
}

func TestStrategiesOnLstSq(t *testing.T) {
	// The six-kernel expression: the profile-based strategy must not be
	// worse than FLOPs alone, and the oracle must dominate both.
	timer := simTimer()
	profiles := profile.MeasureSet(timer, 5)
	reports := Evaluate(expr.NewLstSq(), timer,
		[]Strategy{MinFlops{}, MinPredicted{Profiles: profiles}},
		Config{Box: expr.PaperBox(3), Instances: 60, Seed: 13})
	mf, mp := reports[0], reports[1]
	if mp.Regret.Mean() > mf.Regret.Mean()+1e-9 {
		t.Fatalf("min-predicted regret %.4f worse than min-flops %.4f on lstsq",
			mp.Regret.Mean(), mf.Regret.Mean())
	}
	if mf.Instances != 60 {
		t.Fatalf("instances %d", mf.Instances)
	}
}

// countingExecutor is the measured executor with its TimeAlgorithm
// calls counted.
type countingExecutor struct {
	*exec.Measured
	calls int
}

func (c *countingExecutor) TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64 {
	c.calls++
	return c.Measured.TimeAlgorithm(alg, rep)
}

// TestEvaluateMeasuresEachInstanceOnce pins that Evaluate measures every
// instance once, an Oracle on its own timer included: the oracle picks
// from the totals Evaluate measured, so it makes no TimeAlgorithm calls
// of its own and its regret is exactly 0, even on the noisy measured
// backend.
func TestEvaluateMeasuresEachInstanceOnce(t *testing.T) {
	const reps, instances = 3, 4
	ce := &countingExecutor{Measured: exec.NewMeasured()}
	ce.FlushBytes = 1 << 20
	timer := &exec.Timer{Exec: ce, Reps: reps}
	x := expr.NewAATB()
	reports := Evaluate(x, timer, []Strategy{MinFlops{}, Oracle{Timer: timer}}, Config{
		Box:       expr.UniformBox(3, 8, 24),
		Instances: instances,
		Seed:      5,
	})
	if want := reps * x.NumAlgorithms() * instances; ce.calls != want {
		t.Errorf("%d TimeAlgorithm calls, want reps × algorithms × instances = %d", ce.calls, want)
	}
	if o := reports[1]; o.Regret.Max != 0 || o.OptimalPicks != instances {
		t.Errorf("oracle regret max %g with %d/%d optimal picks, want 0 and all", o.Regret.Max, o.OptimalPicks, instances)
	}
}
