package selection

import (
	"math"

	"lamb/internal/expr"
)

// The follow-up paper "A Test for FLOPs as a Discriminant for Linear
// Algebra Algorithms" (arXiv:2209.03258) reframes algorithm selection
// as an online decision process: a selector that serves traffic can
// observe how its choices actually perform and fold those outcomes back
// into later decisions. Adaptive implements that loop on top of the
// profile-backed prior this repository already has.

// Predictor estimates an algorithm's execution time — the prior an
// adaptive selector starts from before any outcome has been observed.
type Predictor interface {
	PredictAlgorithm(a *expr.Algorithm) float64
}

// Predict returns p's predicted time for each algorithm, in order: the
// prior vector Blend starts from.
func Predict(p Predictor, algs []expr.Algorithm) []float64 {
	out := make([]float64, len(algs))
	for i := range algs {
		out[i] = p.PredictAlgorithm(&algs[i])
	}
	return out
}

// Observation is one aggregated measured outcome: algorithm Algorithm
// (the paper's 1-based index) took Seconds on average over Count
// measurements at an instance Distance away from the queried one in
// log-shape space. Weight, when positive, is the time-decayed
// pseudo-count the outcome store maintains (half-life decay on stale
// evidence); when zero, the raw Count stands in — so sources without
// decay keep working unchanged. M2, when positive, is the stream's
// Welford sum of squared deviations (its variance is M2 divided by the
// evidence mass), so the posterior can carry an honest spread; zero
// means the source tracks no variance and the prior's spread stands in.
type Observation struct {
	Algorithm int
	Seconds   float64
	Count     int
	Weight    float64
	Distance  float64
	M2        float64
}

// weight is the observation's effective evidence mass: the decayed
// Weight when the source maintains one, otherwise the raw Count.
func (o Observation) weight() float64 {
	if o.Weight > 0 {
		return o.Weight
	}
	return float64(o.Count)
}

// DefaultAdaptiveRadius is the log-shape distance scale at which
// observed outcomes stop informing a query: e^0.25 ≈ 1.28, so outcomes
// within roughly a quarter log-unit (a ~28% combined size difference)
// carry meaningful weight.
const DefaultAdaptiveRadius = 0.25

// DefaultPriorWeight is the pseudo-count the prediction enters the
// blend with: one virtual observation at the predicted time, so a
// single contradicting measurement already pulls the estimate halfway.
const DefaultPriorWeight = 1.0

// Adaptive starts from a profile-backed prediction and refines it with
// measured outcomes fed back by callers. For each algorithm the
// estimate is a precision-weighted blend
//
//	t̂ᵢ = (w₀·predictedᵢ + Σ wₒ·secondsₒ) / (w₀ + Σ wₒ)
//
// over the observations o for algorithm i near the queried instance,
// with Gaussian distance weights wₒ = massₒ·exp(−(dₒ/Radius)²) — massₒ
// the observation's decayed Weight (or raw Count when the source keeps
// no decay) — and the prior pseudo-count w₀ = DefaultPriorWeight. With
// no feedback it reduces to the prior exactly; as outcomes accumulate in an instance region the
// measured times dominate and repeated traffic converges on the
// empirically best algorithm there.
type Adaptive struct {
	// Prior supplies the starting prediction (typically MinPredicted
	// over a persisted profile store).
	Prior Predictor
	// Observe returns outcomes recorded near the instance; nil means no
	// feedback source, i.e. the prior alone.
	Observe func(inst expr.Instance) []Observation
	// Radius is the distance scale (default DefaultAdaptiveRadius).
	Radius float64
}

// Name implements Strategy.
func (Adaptive) Name() string { return "adaptive" }

// Choose implements Strategy: without an instance there is nothing to
// look outcomes up by, so the choice is the prior's.
func (s Adaptive) Choose(algs []expr.Algorithm) int {
	return s.ChooseFor(nil, algs)
}

// ChooseFor is the posterior-mean argmin at inst.
func (s Adaptive) ChooseFor(inst expr.Instance, algs []expr.Algorithm) int {
	return BestIndex(s.Posterior(inst, algs))
}

// Posterior computes the per-algorithm time posterior at inst: the
// prior's predictions blended with the outcomes observed near inst.
func (s Adaptive) Posterior(inst expr.Instance, algs []expr.Algorithm) []AlgPosterior {
	if s.Prior == nil {
		panic("selection: Adaptive needs a Prior predictor (e.g. MinPredicted over a profile set)")
	}
	var obs []Observation
	if s.Observe != nil && inst != nil {
		obs = s.Observe(inst)
	}
	return s.Blend(Predict(s.Prior, algs), obs, algs)
}

// Blend pools precomputed evidence into the per-algorithm posterior:
// each algorithm's virtual prior observation (mass DefaultPriorWeight at
// its predicted time prior[i], spread DefaultPriorRelStd·prior[i]) with
// its distance-weighted observations. The pooled mean reproduces the blend
// formula above exactly; the pooled variance mixes each stream's own
// spread with the spread *between* stream means, so disagreeing
// evidence widens the posterior instead of silently averaging away.
// Prior and Observe are not consulted.
func (s Adaptive) Blend(prior []float64, obs []Observation, algs []expr.Algorithm) []AlgPosterior {
	if len(algs) == 0 {
		panic("selection: choose from empty set")
	}
	radius := s.Radius
	if radius <= 0 {
		radius = DefaultAdaptiveRadius
	}
	const w0, relStd = DefaultPriorWeight, DefaultPriorRelStd
	// The first pass accumulates, per algorithm position, the evidence
	// mass in Weight, the weighted first moment in Mean and the weighted
	// second moment in StdErr; the second pass turns them into the
	// posterior.
	post := make([]AlgPosterior, len(algs))
	for _, o := range obs {
		i := algPosition(algs, o.Algorithm)
		if i < 0 || o.weight() <= 0 || o.Seconds <= 0 {
			continue
		}
		d := o.Distance / radius
		w := o.weight() * math.Exp(-d*d)
		v := 0.0
		if o.M2 > 0 {
			v = o.M2 / o.weight()
		}
		q := &post[i]
		q.Weight += w
		q.Mean += w * o.Seconds
		q.StdErr += w * (v + o.Seconds*o.Seconds)
		q.Informed = true
	}
	for i := range post {
		q := &post[i]
		p := prior[i]
		v0 := relStd * p * relStd * p
		mass := w0 + q.Weight
		mean := (w0*p + q.Mean) / mass
		second := (w0*(v0+p*p) + q.StdErr) / mass
		variance := second - mean*mean
		if variance < 0 {
			variance = 0
		}
		q.Algorithm = algs[i].Index
		q.Mean = mean
		q.StdErr = math.Sqrt(variance / mass)
		q.Weight = mass
	}
	return post
}

// algPosition returns the position in algs of the algorithm with the
// 1-based index, or -1 if there is none. The index is position+1 in a
// full enumeration set; a caller may pass a filtered or reordered set,
// which is scanned.
func algPosition(algs []expr.Algorithm, index int) int {
	if k := index - 1; k >= 0 && k < len(algs) && algs[k].Index == index {
		return k
	}
	for i := range algs {
		if algs[i].Index == index {
			return i
		}
	}
	return -1
}
