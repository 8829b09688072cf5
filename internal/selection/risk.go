package selection

import (
	"math"
	"slices"
	"sync"

	"lamb/internal/expr"
	"lamb/internal/xrand"
)

// The follow-up paper "A Test for FLOPs as a Discriminant for Linear
// Algebra Algorithms" (arXiv:2209.03258) asks not just *which*
// algorithm is fastest but *how sure* a selector can be: it builds a
// statistical test for when the min-FLOPs discriminant is trustworthy.
// This file implements that test over the Adaptive posterior — each
// algorithm's execution time is summarised as a normal with a mean and
// a standard error, and the test statistics below (pairwise beat
// probability, top-2 gap confidence, and win probabilities computed by
// deterministic quadrature) turn those posteriors into a ranking with
// honest uncertainty.

// DefaultPriorRelStd is the prior's relative spread: the paper's
// profile-based predictions land within a few tens of percent of
// measured times on the studied machines, so the virtual prior
// observation carries a standard deviation of a quarter of the
// predicted time.
const DefaultPriorRelStd = 0.25

// DefaultAnomalyThreshold flags the paper's mispredict regions: a query
// is anomalous when the min-FLOPs pick's probability of beating the
// posterior-best algorithm falls below this value — i.e. the evidence
// contradicts the discriminant with ≥90% confidence.
const DefaultAnomalyThreshold = 0.1

// AlgPosterior is one algorithm's time posterior: a normal summary of
// everything known about its execution time at the queried instance.
type AlgPosterior struct {
	// Algorithm is the 1-based algorithm index (Algorithm.Index).
	Algorithm int
	// Mean is the posterior mean execution time in seconds.
	Mean float64
	// StdErr is the standard error of the mean: the pooled standard
	// deviation shrunk by the total evidence mass.
	StdErr float64
	// Weight is the total evidence mass behind the estimate (prior
	// pseudo-count plus distance-weighted observation mass).
	Weight float64
	// Informed reports whether any measured outcome contributed.
	Informed bool
}

// BestIndex returns the position of the posterior-mean argmin — strict
// minimum, first wins — matching the deterministic tie-break every
// other strategy in this package uses.
func BestIndex(post []AlgPosterior) int {
	if len(post) == 0 {
		panic("selection: choose from empty set")
	}
	best := 0
	bestT := post[0].Mean
	for i := 1; i < len(post); i++ {
		if post[i].Mean < bestT {
			best, bestT = i, post[i].Mean
		}
	}
	return best
}

// normalCDF is Φ(x) via the complementary error function.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// BeatProbability is P(tₐ < t_b) under independent normal posteriors:
// Φ((μ_b−μₐ)/√(σₐ²+σ_b²)). With both spreads zero the answer is
// decided by the means alone (½ on an exact tie).
func BeatProbability(a, b AlgPosterior) float64 {
	denom := math.Sqrt(a.StdErr*a.StdErr + b.StdErr*b.StdErr)
	if denom == 0 {
		switch {
		case a.Mean < b.Mean:
			return 1
		case a.Mean > b.Mean:
			return 0
		default:
			return 0.5
		}
	}
	return normalCDF((b.Mean - a.Mean) / denom)
}

// GapConfidence is the closed-form top-2 test statistic: the
// probability that the posterior-best algorithm beats the runner-up.
// Near ½ the ranking's head is a coin flip; near 1 it is settled. A
// single-algorithm set is trivially certain.
func GapConfidence(post []AlgPosterior) float64 {
	if len(post) < 2 {
		return 1
	}
	best := BestIndex(post)
	runner := -1
	for i := range post {
		if i == best {
			continue
		}
		if runner < 0 || post[i].Mean < post[runner].Mean {
			runner = i
		}
	}
	return BeatProbability(post[best], post[runner])
}

// WinProbabilities returns each algorithm's probability of being the
// fastest under independent normal posteriors,
//
//	pᵢ = E_x[∏_{j≠i} P(Tⱼ > μᵢ + σᵢx)],  x ~ N(0, 1),
//
// computed by deterministic quadrature (winIntegrals), so identical
// posteriors always yield identical probabilities. Two algorithms use
// the closed form. Point masses (StdErr 0) are exact, with ties going
// to the lowest position as in BestIndex. The result is rounded onto a
// 2^-20 grid, so it sums to exactly 1. A posterior with a non-finite
// mean or a non-finite or negative spread, or one whose integrals all
// underflow, puts all mass on BestIndex — never a NaN.
//
// The rng and samples parameters are unused: they remain only because
// perfbench's layer replay still passes them.
func WinProbabilities(post []AlgPosterior, _ *xrand.Rand, _ int) []float64 {
	switch len(post) {
	case 0:
		return nil
	case 1:
		return []float64{1}
	}
	for _, p := range post {
		if math.IsNaN(p.Mean) || math.IsInf(p.Mean, 0) || !(p.StdErr >= 0) || math.IsInf(p.StdErr, 1) {
			return allTo(len(post), BestIndex(post))
		}
	}
	if len(post) == 2 {
		p := BeatProbability(post[0], post[1])
		if math.IsNaN(p) {
			return allTo(2, BestIndex(post))
		}
		return []float64{p, 1 - p}
	}
	return roundDyadic(winIntegrals(post), BestIndex(post))
}

// The quadrature rule (see winIntegrals).
const (
	// quadHalfWidth bounds each candidate's reach: every posterior is
	// integrated over ±6 of its standard deviations (the mass beyond
	// is 2e-9).
	quadHalfWidth = 6
	// quadTol is the largest change of any candidate's integral between
	// two halvings at which the integrals are accepted. The accepted
	// integrals are far closer than that: measured against a fine
	// reference, the rounded probabilities are within 1e-4 on paper-box
	// FLOP-prior sets and within 2e-3 on sets whose spreads differ by
	// up to 100×.
	quadTol = 2e-3
	// maxQuadNodes stops the halving.
	maxQuadNodes = 4096
	// pBestScale is the rounding grid of win probabilities (2^20 units).
	pBestScale = 1 << 20
)

// winIntegrals returns each candidate's win probability before
// rounding, pᵢ = ∫ φᵢ(t) ∏_{j≠i} P(Tⱼ > t) dt, by the trapezoid rule on
// one grid shared by all candidates, so each node costs O(k) rather
// than O(k²):
//   - the window runs from the lowest μⱼ − 6σⱼ to the lowest μⱼ + 6σⱼ,
//     past which some candidate has surely finished;
//   - the reaches μⱼ ± 6σⱼ cut the window into pieces, and each piece
//     is a uniform rule whose step is the narrowest σⱼ reaching it:
//     every candidate's density and survival is resolved on its own
//     scale wherever it changes, and nowhere else, so a spread 100×
//     narrower than the rest costs a dozen nodes, not a thousand;
//   - point masses cut the window at the lowest of them, m: a
//     continuous candidate can only win below m, and that point mass
//     wins with probability ∏ⱼ P(Tⱼ > m), in closed form.
//
// Every piece then halves its step until no integral changes by more
// than quadTol. Within a piece, for a Gaussian times a smooth factor,
// the trapezoid rule converges exponentially; where the step changes
// between pieces, and at the cut, the error falls only as the step
// squared, and the halving goes on until that error is below the
// tolerance too.
func winIntegrals(post []AlgPosterior) []float64 {
	q := quadPool.Get().(*quadrature)
	q.reset(post)
	defer func() {
		q.post = nil // do not keep the caller's posterior alive
		quadPool.Put(q)
	}()
	k := len(post)
	raw := make([]float64, k)
	pm := -1
	lo, hi := math.Inf(1), math.Inf(1)
	for j, p := range post {
		if p.StdErr == 0 {
			if pm < 0 || p.Mean < post[pm].Mean {
				pm = j
			}
			continue
		}
		q.inv[j] = 1 / (p.StdErr * math.Sqrt2)
		lo = math.Min(lo, p.Mean-quadHalfWidth*p.StdErr)
		hi = math.Min(hi, p.Mean+quadHalfWidth*p.StdErr)
	}
	if pm >= 0 {
		hi = math.Min(hi, post[pm].Mean)
		raw[pm] = q.eval(post[pm].Mean, q.next)
	}
	if !(hi > lo) {
		return raw // no continuous candidate can win
	}
	q.cuts = append(q.cuts, lo, hi)
	for j, p := range post {
		for _, c := range []float64{p.Mean - quadHalfWidth*p.StdErr, p.Mean + quadHalfWidth*p.StdErr} {
			if q.inv[j] != 0 && c > lo && c < hi {
				q.cuts = append(q.cuts, c)
			}
		}
	}
	slices.Sort(q.cuts)
	for c := 1; c < len(q.cuts); c++ {
		a, b := q.cuts[c-1], q.cuts[c]
		if !(b > a) {
			continue
		}
		// The window's lowest reach covers every piece, so step is finite.
		step := math.Inf(1)
		for j, p := range post {
			if q.inv[j] != 0 && math.Abs((a+b)/2-p.Mean) <= quadHalfWidth*p.StdErr {
				step = math.Min(step, p.StdErr)
			}
		}
		if n := len(q.rules); n > 0 && q.rules[n-1].step == step {
			q.rules[n-1].end = b // same step: extend the previous piece
		} else {
			q.addRule(a, step, b)
		}
	}
	q.addRule(hi, 0, hi)
	nodes := 0
	for r := range q.rules {
		q.fill(&q.rules[r])
		nodes += q.rules[r].n
	}
	sum, next := q.trapezoid(q.sum), q.next
	for nodes < maxQuadNodes {
		nodes = 0
		for r := range q.rules {
			q.halve(&q.rules[r])
			nodes += q.rules[r].n
		}
		next = q.trapezoid(next)
		change := 0.0
		for i := range sum {
			change = math.Max(change, math.Abs(next[i]-sum[i]))
		}
		sum, next = next, sum
		if change <= quadTol {
			break
		}
	}
	for i := range raw {
		if q.inv[i] != 0 {
			raw[i] = sum[i]
		}
	}
	return raw
}

// quadPool recycles quadrature buffers: ranking runs on every query,
// and its node values are most of what it allocates.
var quadPool = sync.Pool{New: func() any { return new(quadrature) }}

// quadRule is one uniform piece of the grid: n nodes start + m·step,
// all below end (the closing rule has its one node at end), with every
// candidate's integrand there, k to a node, in f. Halving adds the
// midpoints below end.
type quadRule struct {
	start, step, end float64
	n                int
	f                []float64
}

func (r *quadRule) at(m int) float64 { return r.start + float64(m)*r.step }

// quadrature is one posterior set's grid and scratch, reused through
// quadPool.
type quadrature struct {
	post []AlgPosterior
	// inv[j] = 1/(σⱼ√2) turns P(Tⱼ > t) into ½·erfc((t−μⱼ)·inv[j]);
	// zero marks a point mass.
	inv []float64
	// surv is eval's scratch: the survivals at the last node.
	surv      []float64
	sum, next []float64
	cuts      []float64
	rules     []quadRule
}

// reset sizes the buffers for post, zeroed, keeping their storage.
func (q *quadrature) reset(post []AlgPosterior) {
	k := len(post)
	q.post = post
	for _, s := range []*[]float64{&q.inv, &q.surv, &q.sum, &q.next} {
		*s = slices.Grow((*s)[:0], k)[:k]
		clear(*s)
	}
	q.cuts = q.cuts[:0]
	q.rules = q.rules[:0]
}

// addRule appends a piece, reusing the node storage of the piece that
// last held its place.
func (q *quadrature) addRule(start, step, end float64) {
	r := quadRule{start: start, step: step, end: end}
	if n := len(q.rules); n < cap(q.rules) {
		r.f = q.rules[:n+1][n].f[:0]
	}
	if step == 0 {
		r.n = 1
	}
	q.rules = append(q.rules, r)
}

// fill places the rule's nodes start + m·step below its end and
// evaluates them.
func (q *quadrature) fill(r *quadRule) {
	k := len(q.post)
	if r.n == 0 {
		r.n = int(math.Ceil((r.end - r.start) / r.step))
	}
	r.f = slices.Grow(r.f[:0], r.n*k)[:r.n*k]
	for m := 0; m < r.n; m++ {
		q.eval(r.at(m), r.f[m*k:(m+1)*k])
	}
}

// halve interleaves the rule's nodes with the midpoints below its end,
// in place from the back.
func (q *quadrature) halve(r *quadRule) {
	k := len(q.post)
	n := 2*r.n - 1
	if r.at(r.n-1)+r.step/2 < r.end {
		n++
	}
	r.f = slices.Grow(r.f, (n-r.n)*k)[:n*k]
	for m := r.n - 1; m >= 0; m-- {
		copy(r.f[2*m*k:(2*m+1)*k], r.f[m*k:(m+1)*k])
		if 2*m+1 < n {
			q.eval(r.at(m)+r.step/2, r.f[(2*m+1)*k:(2*m+2)*k])
		}
	}
	r.n, r.step = n, r.step/2
}

// eval writes every continuous candidate's integrand at t into f,
// fᵢ = φᵢ(t)·∏_{j≠i} P(Tⱼ > t), with the product taken from prefix and
// suffix products so no survival is divided out. It returns the
// product of all survivals.
func (q *quadrature) eval(t float64, f []float64) float64 {
	pre := 1.0
	for j, p := range q.post {
		if q.inv[j] == 0 {
			q.surv[j], f[j] = 1, 0
			continue
		}
		z := (t - p.Mean) * q.inv[j]
		q.surv[j] = 0.5 * math.Erfc(z)
		f[j] = pre * math.Exp(-z*z) * q.inv[j] / math.SqrtPi
		pre *= q.surv[j]
	}
	suf := 1.0
	for j := len(q.post) - 1; j >= 0; j-- {
		f[j] *= suf
		suf *= q.surv[j]
	}
	return pre
}

// trapezoid integrates every candidate over the pieces' nodes, which
// are in order, into sum.
func (q *quadrature) trapezoid(sum []float64) []float64 {
	k := len(sum)
	clear(sum)
	var prevT float64
	var prevF []float64
	for r := range q.rules {
		rule := &q.rules[r]
		for m := 0; m < rule.n; m++ {
			t, f := rule.at(m), rule.f[m*k:(m+1)*k]
			if prevF != nil {
				w := (t - prevT) / 2
				for i := range sum {
					sum[i] += w * (f[i] + prevF[i])
				}
			}
			prevT, prevF = t, f
		}
	}
	return sum
}

// roundDyadic normalises raw to a distribution and rounds it onto the
// 2^-20 grid by largest remainder, ties to the lowest position. Every
// partial sum of multiples of 2^-20 up to 1 is exact in float64, so
// the result sums to exactly 1. Weights that sum to zero or to a
// non-finite value put all mass on fallback. raw is overwritten.
func roundDyadic(raw []float64, fallback int) []float64 {
	total := 0.0
	for _, r := range raw {
		total += r
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return allTo(len(raw), fallback)
	}
	out := make([]float64, len(raw))
	left := float64(pBestScale)
	for i, r := range raw {
		s := r / total * pBestScale
		out[i] = math.Floor(s)
		raw[i] = s - out[i]
		left -= out[i]
	}
	// Normalising leaves each floor short by under one unit, so at most
	// len(raw) units remain to hand out.
	for ; left > 0; left-- {
		best := 0
		for i := range raw {
			if raw[i] > raw[best] {
				best = i
			}
		}
		out[best]++
		raw[best] = -1
	}
	for i := range out {
		out[i] /= pBestScale
	}
	return out
}

// allTo is the distribution with all mass on position i.
func allTo(n, i int) []float64 {
	out := make([]float64, n)
	out[i] = 1
	return out
}

// SampleBest draws one execution time per algorithm from its posterior
// and returns the argmin position — one Thompson sampling round. An
// algorithm is selected with exactly its posterior probability of being
// fastest, which is what makes the exploration policy self-correcting:
// under-observed alternatives with wide posteriors get tried, settled
// losers do not.
func SampleBest(post []AlgPosterior, rng *xrand.Rand) int {
	if len(post) == 0 {
		panic("selection: choose from empty set")
	}
	return sampleBest(post, rng)
}

func sampleBest(post []AlgPosterior, rng *xrand.Rand) int {
	best := 0
	bestT := math.Inf(1)
	for i := range post {
		t := post[i].Mean + post[i].StdErr*rng.NormFloat64()
		if t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// FlopsPredictor is the profile-free prior: an algorithm's "time" is
// its FLOP count. The scale is wrong (operations, not seconds) but the
// induced order is exactly the paper's min-FLOPs discriminant, so a
// posterior built on it ranks identically to MinFlops until real
// outcomes arrive.
type FlopsPredictor struct{}

// PredictAlgorithm implements Predictor.
func (FlopsPredictor) PredictAlgorithm(a *expr.Algorithm) float64 { return a.Flops() }
