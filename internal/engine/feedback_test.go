package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/profile"
)

// profiledEngine builds an engine over the simulated backend with
// freshly measured profiles, as `lamb serve -profile` would after
// loading a store.
func profiledEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	timer := exec.NewTimer(exec.NewDefaultSimulated())
	timer.Reps = 2
	cfg.Profiles = profile.MeasureSet(timer, 3)
	if cfg.ProfileMeta == (profile.Meta{}) {
		cfg.ProfileMeta = profile.Meta{Source: "test-profile.json", Backend: "simulated/test"}
	}
	return New(cfg)
}

// TestEngineAdaptiveSwitchesAfterContradictingFeedback is the
// acceptance pin for the online loop: the adaptive strategy starts from
// the profile-backed prediction, and after feedback contradicting that
// prediction it demonstrably selects a different algorithm.
func TestEngineAdaptiveSwitchesAfterContradictingFeedback(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	adaptive := Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"}

	base, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-predicted"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ask(context.Background(), e, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if first.Selected.Index != base.Selected.Index {
		t.Fatalf("without feedback adaptive picked %d, min-predicted %d",
			first.Selected.Index, base.Selected.Index)
	}
	if first.Profile != "test-profile.json" {
		t.Fatalf("record profile provenance %q", first.Profile)
	}

	// Contradicting outcomes: the predicted pick measured very slow,
	// every alternative very fast.
	for rep := 0; rep < 3; rep++ {
		for alg := 1; alg <= first.NumAlgorithms; alg++ {
			sec := 1e-6
			if alg == first.Selected.Index {
				sec = 10.0
			}
			if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: alg, Seconds: sec}); err != nil {
				t.Fatal(err)
			}
		}
	}
	second, err := ask(context.Background(), e, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if second.Selected.Index == first.Selected.Index {
		t.Fatalf("adaptive ignored contradicting feedback, still picks %d", second.Selected.Index)
	}
	// Other strategies are unaffected by feedback.
	after, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-predicted"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Selected.Index != base.Selected.Index {
		t.Fatal("feedback leaked into min-predicted")
	}

	s := e.Stats()
	if s.Feedback != uint64(3*first.NumAlgorithms) || s.FeedbackInstances != 1 {
		t.Fatalf("feedback counters %+v", s)
	}
	if s.AdaptiveQueries != 2 || s.AdaptiveInformed != 1 {
		t.Fatalf("adaptive counters queries=%d informed=%d", s.AdaptiveQueries, s.AdaptiveInformed)
	}
	if s.Profile == nil || s.Profile.ID != "test-profile.json" {
		t.Fatalf("stats profile provenance %+v", s.Profile)
	}
}

// TestEngineAdaptiveNearestNeighbour checks the instance-region reuse:
// feedback recorded at one instance informs queries at nearby instances
// (small log-shape distance) but not at distant ones.
func TestEngineAdaptiveNearestNeighbour(t *testing.T) {
	e := profiledEngine(t, Config{})
	fed := expr.Instance{80, 514, 768}
	near := expr.Instance{84, 530, 750} // a few percent away per dim
	far := expr.Instance{400, 100, 160} // several log-units away

	base, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: fed, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		for alg := 1; alg <= base.NumAlgorithms; alg++ {
			sec := 1e-6
			if alg == base.Selected.Index {
				sec = 10.0
			}
			if err := e.Feedback(Feedback{Expr: "aatb", Instance: fed, Algorithm: alg, Seconds: sec}); err != nil {
				t.Fatal(err)
			}
		}
	}
	nearRec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: near, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	if nearRec.Selected.Index == base.Selected.Index {
		t.Fatal("nearby instance did not reuse recorded outcomes")
	}
	farBase, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: far, Strategy: "min-predicted"})
	if err != nil {
		t.Fatal(err)
	}
	farRec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: far, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	if farRec.Selected.Index != farBase.Selected.Index {
		t.Fatal("distant instance was influenced by unrelated outcomes")
	}
}

func TestEngineFeedbackValidation(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	cases := map[string]Feedback{
		"unknown expression": {Expr: "nope", Instance: inst, Algorithm: 1, Seconds: 1},
		"bad arity":          {Expr: "aatb", Instance: expr.Instance{1}, Algorithm: 1, Seconds: 1},
		"index zero":         {Expr: "aatb", Instance: inst, Algorithm: 0, Seconds: 1},
		"index out of range": {Expr: "aatb", Instance: inst, Algorithm: 99, Seconds: 1},
		"zero seconds":       {Expr: "aatb", Instance: inst, Algorithm: 1, Seconds: 0},
		"negative seconds":   {Expr: "aatb", Instance: inst, Algorithm: 1, Seconds: -4},
		"NaN seconds":        {Expr: "aatb", Instance: inst, Algorithm: 1, Seconds: math.NaN()},
		"Inf seconds":        {Expr: "aatb", Instance: inst, Algorithm: 1, Seconds: math.Inf(1)},
	}
	for name, fb := range cases {
		if err := e.Feedback(fb); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if s := e.Stats(); s.Feedback != 0 || s.FeedbackInstances != 0 {
		t.Fatalf("rejected feedback was counted: %+v", s)
	}
	// Feedback works against the uncounted lookup path and mixed name
	// casing, like queries do.
	if err := e.Feedback(Feedback{Expr: "AATB", Instance: inst, Algorithm: 2, Seconds: 0.5}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Feedback != 1 || s.FeedbackInstances != 1 {
		t.Fatalf("feedback counters %+v", s)
	}
}

func TestEngineAdaptiveUnavailableWithoutProfiles(t *testing.T) {
	e := New(Config{})
	rec, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: expr.Instance{10, 20, 30}, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	// Without profiles, adaptive degrades to min-flops with the record
	// stamped rather than erroring.
	if rec.Strategy != "min-flops" || rec.Requested != "adaptive" || rec.Degraded != DegradedNoProfile {
		t.Fatalf("degraded record not stamped: %+v", rec)
	}
	// Without profiles there is no adaptive strategy to consume
	// outcomes, so feedback is rejected rather than silently hoarded.
	if err := e.Feedback(Feedback{Expr: "aatb", Instance: expr.Instance{10, 20, 30}, Algorithm: 1, Seconds: 1e-3}); err == nil {
		t.Fatal("feedback without a consumer accepted")
	}
}

// TestEngineFeedbackStoreBounded pins the outcome store's capacity:
// like the engine's other layers it must not grow without limit, and
// eviction drops the least-recently-touched record.
func TestEngineFeedbackStoreBounded(t *testing.T) {
	e := profiledEngine(t, Config{FeedbackEntries: 8})
	for i := 0; i < 30; i++ {
		fb := Feedback{Expr: "aatb", Instance: expr.Instance{20 + i, 514, 768}, Algorithm: 1, Seconds: 1e-3}
		if err := e.Feedback(fb); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.FeedbackInstances != 8 {
		t.Fatalf("store holds %d records, want the 8-record bound", s.FeedbackInstances)
	}
	if s.Feedback != 30 {
		t.Fatalf("feedback counter %d", s.Feedback)
	}
	// The survivors are the most recently touched instances: an old one
	// no longer informs an adaptive query, a fresh one still does.
	if obs := e.outcomes.Near("AATB", expr.Instance{20, 514, 768}, 0.01); len(obs) != 0 {
		t.Fatalf("evicted record still observable: %v", obs)
	}
	if obs := e.outcomes.Near("AATB", expr.Instance{49, 514, 768}, 0.01); len(obs) == 0 {
		t.Fatal("recent record missing")
	}
}

// TestEngineFeedbackQueryTouchPreventsEviction pins the read-refresh:
// a record actively serving adaptive queries is a touched record, so
// churning feedback on throwaway instances evicts the stale ones, not
// the evidence in use.
func TestEngineFeedbackQueryTouchPreventsEviction(t *testing.T) {
	e := profiledEngine(t, Config{FeedbackEntries: 4})
	hot := expr.Instance{80, 514, 768}
	if err := e.Feedback(Feedback{Expr: "aatb", Instance: hot, Algorithm: 1, Seconds: 1e-3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		// The adaptive query touches the hot record...
		if _, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: hot, Strategy: "adaptive"}); err != nil {
			t.Fatal(err)
		}
		// ...so churning feedback on distant throwaway instances evicts
		// among themselves.
		cold := expr.Instance{900 + 7*i, 30, 40}
		if err := e.Feedback(Feedback{Expr: "aatb", Instance: cold, Algorithm: 1, Seconds: 1e-3}); err != nil {
			t.Fatal(err)
		}
	}
	if obs := e.outcomes.Near("AATB", hot, 0.01); len(obs) != 1 {
		t.Fatalf("actively queried record was evicted: %v", obs)
	}
}

// TestEngineFeedbackEvictionAcrossExpressions pins the cross-expression
// eviction path: when eviction removes an expression's last record (and
// its per-expression map), an insert for that same expression must
// still land somewhere near() can observe it.
func TestEngineFeedbackEvictionAcrossExpressions(t *testing.T) {
	e := profiledEngine(t, Config{FeedbackEntries: 2})
	feed := func(x string, inst expr.Instance) {
		t.Helper()
		if err := e.Feedback(Feedback{Expr: x, Instance: inst, Algorithm: 1, Seconds: 1e-3}); err != nil {
			t.Fatal(err)
		}
	}
	feed("aatb", expr.Instance{80, 514, 768})  // oldest: evicted next
	feed("gls", expr.Instance{40, 30, 20, 10}) // different expression
	feed("aatb", expr.Instance{120, 200, 300}) // evicts aatb's only record
	if got := e.Stats().FeedbackInstances; got != 2 {
		t.Fatalf("store holds %d records, want 2", got)
	}
	if obs := e.outcomes.Near("AATB", expr.Instance{120, 200, 300}, 0.01); len(obs) != 1 {
		t.Fatalf("record inserted after same-expression eviction not observable: %v", obs)
	}
	if obs := e.outcomes.Near("AATB", expr.Instance{80, 514, 768}, 0.01); len(obs) != 0 {
		t.Fatalf("evicted record still observable: %v", obs)
	}
}

// TestEngineFeedbackQueryConcurrentRace drives Feedback, adaptive
// queries, and Stats concurrently; run under -race (the CI matrix runs
// it at -cpu=1,2,4).
func TestEngineFeedbackQueryConcurrentRace(t *testing.T) {
	e := profiledEngine(t, Config{})
	const workers = 8
	const iters = 25
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
					if _, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"}); err != nil {
						errs <- err
					}
				default:
					s := e.Stats()
					if s.Backend == "" {
						errs <- fmt.Errorf("empty backend in stats")
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
	if s := e.Stats(); s.Feedback == 0 || s.AdaptiveQueries == 0 || s.FeedbackInstances == 0 {
		t.Fatalf("counters did not move: %+v", s)
	}
}
