package engine

// The discriminant test (arXiv:2209.03258) at the serving layer: every
// record renders the engine's current evidence as a ranking with win
// probabilities, a top-2 confidence, and an anomaly flag where the
// evidence contradicts the min-FLOPs discriminant. Everything here is
// deterministic for a given store state — win probabilities come from
// quadrature, not sampling — so identical queries produce identical
// records, which the dedup layers and the serve tests rely on, and a
// bound set can memoise its last ranking.

import (
	"math"
	"sort"

	"lamb/internal/expr"
	"lamb/internal/selection"
)

// exploreSeed is the fixed seed of the Thompson exploration draws,
// labelled further by the exploration event ordinal.
const exploreSeed uint64 = 0x740_0b5e12

// RankEntry is one row of a record's ranking: an algorithm, its
// posterior summary, and the probability it is actually the fastest.
type RankEntry struct {
	// Alg is the paper's 1-based algorithm index (Candidate.Index).
	Alg int `json:"alg"`
	// PBest is the algorithm's probability of being the fastest at this
	// instance under the posterior; the column sums to 1.
	PBest float64 `json:"p_best"`
	// Mean and StdErr summarise the posterior: mean estimated execution
	// time in seconds (FLOPs stand in for seconds when no profile store
	// is loaded — wrong scale, same order) and its standard error.
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
}

// exploreInterval converts a configured exploration rate into the
// deterministic pacing interval: every interval-th eligible adaptive
// answer explores. 0 disables: any rate that is not above 0, NaN
// included. A rate so small that its interval overflows paces at the
// largest int32.
func exploreInterval(rate float64) int {
	if !(rate > 0) {
		return 0
	}
	if rate >= 1 {
		return 1
	}
	return int(math.Round(min(1/rate, math.MaxInt32)))
}

// exploreTick decides whether this adaptive answer explores, returning
// the exploration-stream ordinal that seeds its draws. Only undegraded
// adaptive answers reach it — under load shedding or a missing profile
// the engine must serve its safest answer, not an experiment.
func (e *Engine) exploreTick() (uint64, bool) {
	if e.exploreEvery <= 0 {
		return 0, false
	}
	n := e.exploreSeen.Add(1)
	return n, n%uint64(e.exploreEvery) == 0
}

// rankMemo is a bound set's last rendered ranking and the posterior it
// was rendered from. It is immutable once published.
type rankMemo struct {
	post       []selection.AlgPosterior
	ranking    []RankEntry
	confidence float64
	anomaly    bool
}

// rank renders a posterior into the record's ranking block, reusing the
// set's memoised ranking when post is bitwise equal to the one it was
// rendered from. A hit shares the memo's entries: records treat their
// ranking as read-only.
func (b *boundSet) rank(post []selection.AlgPosterior) (entries []RankEntry, confidence float64, anomaly bool) {
	if m := b.memo.Load(); m != nil && samePosterior(m.post, post) {
		return m.ranking, m.confidence, m.anomaly
	}
	entries, confidence, anomaly = rank(b.algs, post)
	b.memo.Store(&rankMemo{post: post, ranking: entries, confidence: confidence, anomaly: anomaly})
	return entries, confidence, anomaly
}

// samePosterior reports whether two posteriors are bitwise equal, so a
// memo hit can never change a record's bytes (not even 0 against −0).
func samePosterior(a, b []selection.AlgPosterior) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Algorithm != y.Algorithm || x.Informed != y.Informed ||
			math.Float64bits(x.Mean) != math.Float64bits(y.Mean) ||
			math.Float64bits(x.StdErr) != math.Float64bits(y.StdErr) ||
			math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
			return false
		}
	}
	return true
}

// rank renders a posterior into the record's ranking block: entries
// ordered fastest-first by posterior mean, win probabilities by
// quadrature, the closed-form top-2 gap as the record's confidence, and
// the discriminant test itself — the answer is anomalous when the
// posterior-best algorithm differs from the min-FLOPs pick AND the
// min-FLOPs pick's probability of beating it has dropped below the
// threshold. Requiring both keeps near-tied FLOP sets with no feedback
// (beat probability ≈ ½) from flagging.
func rank(algs []expr.Algorithm, post []selection.AlgPosterior) (entries []RankEntry, confidence float64, anomaly bool) {
	pb := selection.WinProbabilities(post, nil, 0)
	order := make([]int, len(post))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return post[order[a]].Mean < post[order[b]].Mean
	})
	entries = make([]RankEntry, len(post))
	for k, i := range order {
		entries[k] = RankEntry{
			Alg:    post[i].Algorithm,
			PBest:  pb[i],
			Mean:   post[i].Mean,
			StdErr: post[i].StdErr,
		}
	}
	confidence = selection.GapConfidence(post)
	best := selection.BestIndex(post)
	minFlops := selection.MinFlops{}.Choose(algs)
	anomaly = best != minFlops &&
		selection.BeatProbability(post[minFlops], post[best]) < selection.DefaultAnomalyThreshold
	return entries, confidence, anomaly
}
