package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/profile"
)

// checkRanking asserts the structural invariants every record's ranking
// must satisfy: one entry per algorithm, means ordered fastest-first,
// and win probabilities that are a distribution.
func checkRanking(t *testing.T, rec *Record) {
	t.Helper()
	if len(rec.Ranking) != rec.NumAlgorithms {
		t.Fatalf("ranking has %d entries for %d algorithms", len(rec.Ranking), rec.NumAlgorithms)
	}
	sum := 0.0
	for i, e := range rec.Ranking {
		if e.PBest < 0 || e.PBest > 1 {
			t.Fatalf("entry %d p_best %g out of range", i, e.PBest)
		}
		sum += e.PBest
		if i > 0 && e.Mean < rec.Ranking[i-1].Mean {
			t.Fatalf("ranking not ordered by mean: %v", rec.Ranking)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("p_best sums to %g", sum)
	}
	if rec.Confidence < 0 || rec.Confidence > 1 {
		t.Fatalf("confidence %g out of range", rec.Confidence)
	}
}

// TestEngineRecordCarriesRanking pins the tentpole's baseline: every
// record — even from a plain profile-less min-flops engine — carries a
// ranking with win probabilities and a confidence, and with no feedback
// nothing is anomalous.
func TestEngineRecordCarriesRanking(t *testing.T) {
	e := New(Config{})
	rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: expr.Instance{80, 514, 768}})
	if err != nil {
		t.Fatal(err)
	}
	checkRanking(t, rec)
	// With FLOPs as the prior, the ranking's head is the min-FLOPs pick.
	if rec.Ranking[0].Alg != rec.Selected.Index {
		t.Fatalf("ranking head %d, selected %d", rec.Ranking[0].Alg, rec.Selected.Index)
	}
	if rec.Anomaly {
		t.Fatal("anomalous with no evidence")
	}
	if s := e.Stats(); s.AnomalousQueries != 0 {
		t.Fatalf("anomalous counter %d", s.AnomalousQueries)
	}
}

// TestEngineRankingDeterministic pins that ranking is a function of the
// evidence: identical queries against identical evidence produce
// identical rankings, the property the dedup layers, the rank memo and
// the serve round-trip test rely on.
func TestEngineRankingDeterministic(t *testing.T) {
	a, err := ask(context.Background(), New(Config{}), Query{Expr: "gls", Instance: expr.Instance{40, 30, 20, 10}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ask(context.Background(), New(Config{}), Query{Expr: "gls", Instance: expr.Instance{40, 30, 20, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Ranking, b.Ranking) || a.Confidence != b.Confidence {
		t.Fatalf("rankings differ across identical engines:\n%v\n%v", a.Ranking, b.Ranking)
	}
}

// TestEngineAnomalyOctaveFlip is the discriminant test end to end:
// contradicting feedback concentrated at one instance region flips the
// ranking there and raises the anomaly flag — evidence says the
// min-FLOPs pick is not fastest — while an octave away, outside the
// evidence's reach, the same query stays confident and unflagged.
func TestEngineAnomalyOctaveFlip(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	octaveUp := expr.Instance{160, 1028, 1536}

	base, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-flops"})
	if err != nil {
		t.Fatal(err)
	}
	// The min-FLOPs pick measures slow here, every alternative fast.
	for rep := 0; rep < 5; rep++ {
		for alg := 1; alg <= base.NumAlgorithms; alg++ {
			sec := 1e-6
			if alg == base.Selected.Index {
				sec = 10.0
			}
			if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: alg, Seconds: sec}); err != nil {
				t.Fatal(err)
			}
		}
	}
	flipped, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	checkRanking(t, flipped)
	if flipped.Selected.Index == base.Selected.Index {
		t.Fatalf("contradicting feedback did not flip the pick from %d", base.Selected.Index)
	}
	if !flipped.Anomaly {
		t.Fatal("contradicted min-FLOPs pick not flagged anomalous")
	}
	if flipped.Ranking[0].Alg == base.Selected.Index {
		t.Fatalf("ranking head still the contradicted pick: %v", flipped.Ranking)
	}
	// The flag is evidence-driven, not strategy-driven: a min-flops query
	// at the same instance still *selects* by FLOPs but reports the same
	// contradiction.
	minRec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-flops"})
	if err != nil {
		t.Fatal(err)
	}
	if minRec.Selected.Index != base.Selected.Index {
		t.Fatal("feedback leaked into min-flops selection")
	}
	if !minRec.Anomaly {
		t.Fatal("min-flops record at a contradicted instance not flagged")
	}
	// An octave away the evidence is out of range: no anomaly, and the
	// prediction-backed ranking stays confidently with its own pick.
	farRec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: octaveUp, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	checkRanking(t, farRec)
	if farRec.Anomaly {
		t.Fatal("anomaly leaked an octave up")
	}
	if farRec.Ranking[0].Alg != farRec.Selected.Index {
		t.Fatalf("uncontradicted ranking head %d, selected %d", farRec.Ranking[0].Alg, farRec.Selected.Index)
	}
	s := e.Stats()
	if s.AnomalousQueries != 2 {
		t.Fatalf("anomalous counter %d, want 2 (one adaptive + one min-flops)", s.AnomalousQueries)
	}
}

// TestEngineThompsonExplorationFeedsBack demonstrates the exploration
// loop closing: with exploration on and a misleading prior, Thompson
// sampling eventually serves a non-min-FLOPs algorithm, the caller
// measures it and feeds the outcome back, and the posterior converges on
// the measured-fastest algorithm the prior had written off.
func TestEngineThompsonExplorationFeedsBack(t *testing.T) {
	e := profiledEngine(t, Config{ExploreRate: 1}) // every eligible answer explores
	inst := expr.Instance{80, 514, 768}

	base, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-flops"})
	if err != nil {
		t.Fatal(err)
	}
	// Serve adaptive queries until an exploration draw steps off the
	// prior's pick — the draws are seeded, so this loop is deterministic.
	explored := 0
	for i := 0; i < 500; i++ {
		rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Explore {
			t.Fatalf("query %d did not explore at rate 1", i)
		}
		if rec.Selected.Index == base.Selected.Index {
			// The truth this test simulates: the prior's (and min-FLOPs')
			// favourite is actually slow here.
			if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: rec.Selected.Index, Seconds: 10.0}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// Exploration served an alternative; it measures fast.
		explored++
		if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: rec.Selected.Index, Seconds: 1e-6}); err != nil {
			t.Fatal(err)
		}
		if explored >= 3 {
			break
		}
	}
	if explored == 0 {
		t.Fatal("Thompson sampling never explored off the prior's pick")
	}
	s := e.Stats()
	if s.ExploreQueries == 0 {
		t.Fatalf("explore counter did not move: %+v", s)
	}
	// The fed-back evidence now dominates: the posterior mean ranks the
	// explored algorithm first, so the ranking head — and, with the
	// evidence this lopsided, the Thompson draw itself — lands on a
	// non-min-FLOPs algorithm.
	rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ranking[0].Alg == base.Selected.Index {
		t.Fatalf("posterior still ranks the contradicted prior pick first: %v", rec.Ranking)
	}
	if rec.Selected.Index == base.Selected.Index {
		t.Fatalf("adaptive still serves the contradicted pick %d", rec.Selected.Index)
	}
}

// TestEngineExplorationDisabledByDefault pins the opt-in: without
// ExploreRate the engine never trades a best-known answer for an
// experiment.
func TestEngineExplorationDisabledByDefault(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	for i := 0; i < 20; i++ {
		rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Explore {
			t.Fatal("explored with exploration disabled")
		}
	}
	if s := e.Stats(); s.ExploreQueries != 0 {
		t.Fatalf("explore counter %d with exploration disabled", s.ExploreQueries)
	}
}

// TestEngineExplorationNeverUnderDegradation pins the safety rail: a
// degraded answer (adaptive without profiles) must be the safest answer,
// never an experiment, no matter the configured rate.
func TestEngineExplorationNeverUnderDegradation(t *testing.T) {
	e := New(Config{ExploreRate: 1}) // no profiles: adaptive degrades
	inst := expr.Instance{80, 514, 768}
	for i := 0; i < 10; i++ {
		rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Degraded != DegradedNoProfile {
			t.Fatalf("record not degraded: %+v", rec)
		}
		if rec.Explore {
			t.Fatal("degraded answer explored")
		}
	}
	if s := e.Stats(); s.ExploreQueries != 0 {
		t.Fatalf("explore counter %d under degradation", s.ExploreQueries)
	}
}

// TestEngineRiskConcurrentRace drives adaptive and min-flops queries,
// feedback, and stats concurrently; run under -race (the CI matrix runs
// it at -cpu=1,2,4). Every answer must carry a structurally valid
// ranking regardless of interleaving.
func TestEngineRiskConcurrentRace(t *testing.T) {
	e := profiledEngine(t, Config{ExploreRate: 0.25})
	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inst := expr.Instance{80 + w, 514, 768}
			for i := 0; i < iters; i++ {
				switch (w + i) % 3 {
				case 0:
					if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: 1 + i%5, Seconds: 1e-4 * float64(1+i)}); err != nil {
						errs <- err
					}
				case 1:
					rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
					if err != nil {
						errs <- err
					} else if len(rec.Ranking) != rec.NumAlgorithms {
						errs <- fmt.Errorf("ranking %d entries for %d algorithms", len(rec.Ranking), rec.NumAlgorithms)
					}
				default:
					rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-flops"})
					if err != nil {
						errs <- err
					} else if rec.Confidence < 0 || rec.Confidence > 1 {
						errs <- fmt.Errorf("confidence %g", rec.Confidence)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := e.Stats(); s.AdaptiveQueries == 0 || s.Feedback == 0 {
		t.Fatalf("counters did not move: %+v", s)
	}
}

// memoFor returns the bound set the engine holds for (name, inst).
func memoFor(t *testing.T, e *Engine, name string, inst expr.Instance) *boundSet {
	t.Helper()
	x, err := e.lookup(name, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.bound(x, inst)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rankingBytes is the record's ranking block as served.
func rankingBytes(t *testing.T, rec *Record) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		Ranking    []RankEntry
		Confidence float64
		Anomaly    bool
	}{rec.Ranking, rec.Confidence, rec.Anomaly})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRankMemoHitEqualsFreshRank pins the memo's contract: a repeated
// query reuses the bound set's last ranking, and that ranking is
// bitwise what a fresh rank of the same posterior renders.
func TestRankMemoHitEqualsFreshRank(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	for _, strat := range []string{"min-flops", "min-predicted", "adaptive"} {
		first, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		b := memoFor(t, e, "aatb", inst)
		m := b.memo.Load()
		if m == nil {
			t.Fatalf("%s: no memo after a query", strat)
		}
		again, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if b.memo.Load() != m || &again.Ranking[0] != &m.ranking[0] {
			t.Fatalf("%s: repeated query did not reuse the memo", strat)
		}
		fresh, confidence, anomaly := rank(b.algs, e.riskPosterior("AATB", inst, b.algs))
		want := rankingBytes(t, &Record{Ranking: fresh, Confidence: confidence, Anomaly: anomaly})
		for _, rec := range []*Record{first, again} {
			if got := rankingBytes(t, rec); !bytes.Equal(got, want) {
				t.Fatalf("%s: memoised ranking differs from a fresh rank:\n%s\n%s", strat, got, want)
			}
		}
	}
}

// TestRankMemoRecomputesAfterReloadAndFeedback pins the memo's
// invalidation: it needs none of its own, because a profile reload and
// feedback near the instance both change the posterior, and a changed
// posterior never hits.
func TestRankMemoRecomputesAfterReloadAndFeedback(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	q := Query{Expr: "aatb", Instance: inst, Strategy: "min-predicted"}
	before, err := ask(context.Background(), e, q)
	if err != nil {
		t.Fatal(err)
	}
	b := memoFor(t, e, "aatb", inst)
	stale := b.memo.Load()

	check := func(step string) *Record {
		t.Helper()
		rec, err := ask(context.Background(), e, q)
		if err != nil {
			t.Fatal(err)
		}
		m := b.memo.Load()
		if m == stale {
			t.Fatalf("%s: the stale memo answered", step)
		}
		fresh, confidence, anomaly := rank(b.algs, e.riskPosterior("AATB", inst, b.algs))
		want := rankingBytes(t, &Record{Ranking: fresh, Confidence: confidence, Anomaly: anomaly})
		if got := rankingBytes(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("%s: ranking differs from a fresh rank:\n%s\n%s", step, got, want)
		}
		if bytes.Equal(rankingBytes(t, rec), rankingBytes(t, before)) {
			t.Fatalf("%s: ranking unchanged", step)
		}
		stale = m
		return rec
	}

	// A reload with a different profile store moves every prior mean.
	timer := exec.NewTimer(exec.NewDefaultSimulated())
	timer.Reps = 2
	e.ReloadProfiles(profile.MeasureSet(timer, 2), profile.Meta{Source: "other-profile.json"})
	before = check("reload")

	// Feedback near the instance informs the posterior.
	if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: 2, Seconds: 1e-3}); err != nil {
		t.Fatal(err)
	}
	check("feedback")
}

// TestRankMemoConcurrentRace shares one bound set's memo between
// concurrent queries while feedback keeps changing its posterior; run
// under -race. Every answer must carry a valid ranking, and once the
// feedback stops, a repeated query must equal a fresh rank.
func TestRankMemoConcurrentRace(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	var wg sync.WaitGroup
	errs := make(chan error, 8*20)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w == 0 {
					if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: 1 + i%5, Seconds: 1e-4 * float64(1+i)}); err != nil {
						errs <- err
					}
					continue
				}
				rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-predicted"})
				if err != nil {
					errs <- err
					continue
				}
				sum := 0.0
				for _, r := range rec.Ranking {
					sum += r.PBest
				}
				if len(rec.Ranking) != rec.NumAlgorithms || sum != 1 {
					errs <- fmt.Errorf("ranking %v sums to %g", rec.Ranking, sum)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-predicted"})
	if err != nil {
		t.Fatal(err)
	}
	b := memoFor(t, e, "aatb", inst)
	fresh, confidence, anomaly := rank(b.algs, e.riskPosterior("AATB", inst, b.algs))
	if !bytes.Equal(rankingBytes(t, rec), rankingBytes(t, &Record{Ranking: fresh, Confidence: confidence, Anomaly: anomaly})) {
		t.Fatal("settled ranking differs from a fresh rank")
	}
}
