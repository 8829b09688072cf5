package selection

import (
	"math"
	"testing"

	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/xrand"
)

// stubPredictor predicts a fixed time per algorithm position (keyed by
// the paper's 1-based index).
type stubPredictor map[int]float64

func (p stubPredictor) PredictAlgorithm(a *expr.Algorithm) float64 { return p[a.Index] }

// stubAlgs builds n minimal algorithms with indices 1..n.
func stubAlgs(n int) []expr.Algorithm {
	out := make([]expr.Algorithm, n)
	for i := range out {
		out[i] = expr.Algorithm{
			Index: i + 1,
			Calls: []kernels.Call{kernels.NewGemm(10, 10, 10, "A", "B", "C", false, false)},
		}
	}
	return out
}

func TestAdaptiveWithoutEvidenceIsThePrior(t *testing.T) {
	prior := stubPredictor{1: 3.0, 2: 1.0, 3: 2.0}
	s := Adaptive{Prior: prior} // no Observe source at all
	algs := stubAlgs(3)
	if got := s.ChooseFor(expr.Instance{100, 100}, algs); got != 1 {
		t.Fatalf("prior pick %d, want 1 (algorithm 2)", got)
	}
	if got := s.Choose(algs); got != 1 {
		t.Fatalf("Choose fallback pick %d, want 1", got)
	}
	// An Observe source returning nothing behaves the same.
	s.Observe = func(expr.Instance) []Observation { return nil }
	if got := s.ChooseFor(expr.Instance{100, 100}, algs); got != 1 {
		t.Fatalf("empty-evidence pick %d, want 1", got)
	}
}

func TestAdaptiveSwitchesOnContradictingEvidence(t *testing.T) {
	// The prior prefers algorithm 1, but measured outcomes at distance 0
	// say it is slow and algorithm 3 is fast.
	prior := stubPredictor{1: 1.0, 2: 1.4, 3: 1.5}
	s := Adaptive{
		Prior: prior,
		Observe: func(expr.Instance) []Observation {
			return []Observation{
				{Algorithm: 1, Seconds: 10.0, Count: 3, Distance: 0},
				{Algorithm: 3, Seconds: 0.1, Count: 3, Distance: 0},
			}
		},
	}
	// Blended: alg1 ≈ (1 + 3·10)/4 = 7.75, alg2 = 1.4, alg3 ≈ (1.5 + 0.3)/4 = 0.45.
	if got := s.ChooseFor(expr.Instance{100}, stubAlgs(3)); got != 2 {
		t.Fatalf("pick %d, want 2 (algorithm 3)", got)
	}
}

func TestAdaptiveDistantEvidenceCarriesLittleWeight(t *testing.T) {
	// The same contradicting outcome far outside the radius must not
	// flip the choice: its Gaussian weight is negligible.
	prior := stubPredictor{1: 1.0, 2: 1.1}
	s := Adaptive{
		Prior:  prior,
		Radius: 0.25,
		Observe: func(expr.Instance) []Observation {
			return []Observation{{Algorithm: 1, Seconds: 100.0, Count: 1, Distance: 2.0}}
		},
	}
	// weight = exp(-(2/0.25)²) = exp(-64) ≈ 0: pick stays with the prior.
	if got := s.ChooseFor(expr.Instance{100}, stubAlgs(2)); got != 0 {
		t.Fatalf("distant evidence flipped the pick to %d", got)
	}
}

func TestAdaptiveEvidenceAccumulates(t *testing.T) {
	// One mild observation is not enough to overcome a strong prior
	// gap, but repeated consistent observations are — the convergence
	// property: traffic plus feedback homes in on the measured best.
	prior := stubPredictor{1: 1.0, 2: 4.0}
	obs := []Observation{}
	s := Adaptive{
		Prior:   prior,
		Observe: func(expr.Instance) []Observation { return obs },
	}
	algs := stubAlgs(2)
	inst := expr.Instance{64, 64}
	obs = append(obs, Observation{Algorithm: 2, Seconds: 0.5, Count: 1, Distance: 0})
	if got := s.ChooseFor(inst, algs); got != 0 {
		// (4 + 0.5)/2 = 2.25 > 1.0: still the prior's pick.
		t.Fatalf("single observation flipped too early: pick %d", got)
	}
	obs[0].Count = 7
	if got := s.ChooseFor(inst, algs); got != 1 {
		// (4 + 7·0.5)/8 = 0.9375 < 1.0: evidence wins.
		t.Fatalf("accumulated evidence ignored: pick %d", got)
	}
}

func TestAdaptiveMatchesObservationsByIndexNotPosition(t *testing.T) {
	// A caller may pass a filtered set whose positions don't line up
	// with the paper's 1-based indices; observations must attach to the
	// algorithm with the matching Index.
	algs := []expr.Algorithm{{Index: 2}, {Index: 5}}
	prior := stubPredictor{2: 1.0, 5: 1.2}
	s := Adaptive{
		Prior: prior,
		Observe: func(expr.Instance) []Observation {
			return []Observation{
				{Algorithm: 2, Seconds: 50, Count: 9, Distance: 0},  // slow: Index 2
				{Algorithm: 5, Seconds: 0.1, Count: 9, Distance: 0}, // fast: Index 5
			}
		},
	}
	if got := s.ChooseFor(expr.Instance{10}, algs); got != 1 {
		t.Fatalf("pick position %d, want 1 (Index 5)", got)
	}
	// An observation for an index not in the set is dropped, not
	// misattributed.
	s.Observe = func(expr.Instance) []Observation {
		return []Observation{{Algorithm: 3, Seconds: 100, Count: 9, Distance: 0}}
	}
	if got := s.ChooseFor(expr.Instance{10}, algs); got != 0 {
		t.Fatalf("out-of-set observation changed the pick: %d", got)
	}
}

func TestAdaptiveIgnoresInvalidObservations(t *testing.T) {
	prior := stubPredictor{1: 2.0, 2: 1.0}
	s := Adaptive{
		Prior: prior,
		Observe: func(expr.Instance) []Observation {
			return []Observation{
				{Algorithm: 0, Seconds: 1, Count: 1},   // below range
				{Algorithm: 99, Seconds: 1, Count: 1},  // above range
				{Algorithm: 2, Seconds: -1, Count: 1},  // non-positive time
				{Algorithm: 2, Seconds: 50, Count: 0},  // no measurements
				{Algorithm: 2, Seconds: 50, Count: -3}, // negative count
			}
		},
	}
	if got := s.ChooseFor(expr.Instance{10}, stubAlgs(2)); got != 1 {
		t.Fatalf("invalid observations changed the pick: %d", got)
	}
}

func TestAdaptiveName(t *testing.T) {
	if (Adaptive{}).Name() != "adaptive" {
		t.Fatal("name")
	}
	// Adaptive must stay usable in the Evaluate harness.
	var _ Strategy = Adaptive{}
}

// randomBlendCase draws one random blend: a prior over n algorithms
// (with ties), a random nonempty subset of the set in random order,
// random observations (valid and invalid, naming algorithms in and out
// of the subset), and default or random blend parameters.
func randomBlendCase(rng *xrand.Rand) (Adaptive, stubPredictor, []expr.Algorithm, []Observation) {
	n := rng.IntRange(1, 8)
	prior := stubPredictor{}
	for i := 1; i <= n; i++ {
		prior[i] = math.Exp(rng.Float64()*20 - 14)
		if i > 1 && rng.Intn(5) == 0 {
			prior[i] = prior[i-1] // ties
		}
	}
	var algs []expr.Algorithm
	for _, a := range stubAlgs(n) {
		if rng.Intn(3) > 0 {
			algs = append(algs, a)
		}
	}
	if len(algs) == 0 {
		algs = stubAlgs(n)[n-1:]
	}
	if rng.Intn(2) == 0 {
		for i := len(algs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			algs[i], algs[j] = algs[j], algs[i]
		}
	}
	obs := make([]Observation, rng.Intn(12))
	for i := range obs {
		obs[i] = Observation{
			Algorithm: rng.IntRange(0, n+1),
			Seconds:   rng.Float64()*2 - 0.2,
			Count:     rng.IntRange(-1, 5),
			Distance:  rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			obs[i].Weight = rng.Float64() * 3
		}
		if rng.Intn(2) == 0 {
			obs[i].M2 = rng.Float64() * 0.1
		}
	}
	s := Adaptive{
		Prior:   prior,
		Observe: func(expr.Instance) []Observation { return obs },
	}
	if rng.Intn(2) == 0 {
		s.Radius = rng.Float64()
	}
	return s, prior, algs, obs
}

// samePosteriors fails the test unless got and want agree bit for bit.
func samePosteriors(t *testing.T, trial int, got, want []AlgPosterior) {
	t.Helper()
	bits := math.Float64bits
	if len(got) != len(want) {
		t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Algorithm != w.Algorithm || g.Informed != w.Informed ||
			bits(g.Mean) != bits(w.Mean) || bits(g.StdErr) != bits(w.StdErr) || bits(g.Weight) != bits(w.Weight) {
			t.Fatalf("trial %d position %d: got %+v, want %+v", trial, i, g, w)
		}
	}
}

// TestBlendEqualsPosteriorProperty pins the split the engine relies on:
// blending precomputed predictions with precomputed observations is
// bitwise the posterior Adaptive builds from its Prior and Observe
// source, over random priors, observations (valid and invalid), blend
// parameters, and filtered, reordered algorithm sets.
func TestBlendEqualsPosteriorProperty(t *testing.T) {
	rng := xrand.New(0xb1e4d)
	for trial := 0; trial < 500; trial++ {
		s, prior, algs, obs := randomBlendCase(rng)
		want := s.Posterior(expr.Instance{100, 200}, algs)
		samePosteriors(t, trial, s.Blend(Predict(prior, algs), obs, algs), want)
	}
}

// blendOracle is Blend as it was written with separate per-position
// sums, an informed flag slice and an index-to-position map: the
// oracle Blend's in-place accumulation must match bit for bit.
func blendOracle(s Adaptive, prior []float64, obs []Observation, algs []expr.Algorithm) []AlgPosterior {
	radius := s.Radius
	if radius <= 0 {
		radius = DefaultAdaptiveRadius
	}
	const w0, relStd = DefaultPriorWeight, DefaultPriorRelStd
	sumW := make([]float64, len(algs))
	sumWM := make([]float64, len(algs))
	sumWS := make([]float64, len(algs))
	informed := make([]bool, len(algs))
	if len(obs) > 0 {
		pos := make(map[int]int, len(algs))
		for i := range algs {
			pos[algs[i].Index] = i
		}
		for _, o := range obs {
			i, ok := pos[o.Algorithm]
			if !ok || o.weight() <= 0 || o.Seconds <= 0 {
				continue
			}
			d := o.Distance / radius
			w := o.weight() * math.Exp(-d*d)
			v := 0.0
			if o.M2 > 0 {
				v = o.M2 / o.weight()
			}
			sumW[i] += w
			sumWM[i] += w * o.Seconds
			sumWS[i] += w * (v + o.Seconds*o.Seconds)
			informed[i] = true
		}
	}
	post := make([]AlgPosterior, len(algs))
	for i := range algs {
		p := prior[i]
		v0 := relStd * p * relStd * p
		mass := w0 + sumW[i]
		mean := (w0*p + sumWM[i]) / mass
		second := (w0*(v0+p*p) + sumWS[i]) / mass
		variance := second - mean*mean
		if variance < 0 {
			variance = 0
		}
		post[i] = AlgPosterior{
			Algorithm: algs[i].Index,
			Mean:      mean,
			StdErr:    math.Sqrt(variance / mass),
			Weight:    mass,
			Informed:  informed[i],
		}
	}
	return post
}

// TestBlendMatchesOracleProperty pins Blend bit for bit to blendOracle
// over random priors, observations (valid and invalid), blend
// parameters, and full, filtered and reordered algorithm sets.
func TestBlendMatchesOracleProperty(t *testing.T) {
	rng := xrand.New(0x0a4c1e)
	for trial := 0; trial < 2000; trial++ {
		s, prior, algs, obs := randomBlendCase(rng)
		p := Predict(prior, algs)
		samePosteriors(t, trial, s.Blend(p, obs, algs), blendOracle(s, p, obs, algs))
	}
}

// TestArgMinFirstStrictMinimum pins the tie-break MinPredicted and the
// engine share: the first position of the strict minimum.
func TestArgMinFirstStrictMinimum(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want int
	}{
		{[]float64{3}, 0},
		{[]float64{2, 1, 1}, 1},
		{[]float64{1, 1, 1}, 0},
		{[]float64{5, 4, 3, 3, 4}, 2},
	} {
		if got := ArgMin(c.xs); got != c.want {
			t.Fatalf("ArgMin(%v) = %d, want %d", c.xs, got, c.want)
		}
	}
}
