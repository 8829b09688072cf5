package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/outcomes"
	"lamb/internal/profile"
)

// TestEngineReloadProfilesSwapsProvenance pins the hot-reload path: a
// reload atomically installs the new store's provenance and strategies,
// bumps the generation, and subsequent profile-backed queries answer
// from (and stamp) the new store.
func TestEngineReloadProfilesSwapsProvenance(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	before, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-predicted"})
	if err != nil {
		t.Fatal(err)
	}
	if before.Profile != "test-profile.json" {
		t.Fatalf("boot provenance %q", before.Profile)
	}
	if s := e.Stats(); s.Profile.Generation != 1 {
		t.Fatalf("boot generation %d, want 1", s.Profile.Generation)
	}

	timer := exec.NewTimer(exec.NewDefaultSimulated())
	timer.Reps = 2
	gen := e.ReloadProfiles(profile.MeasureSet(timer, 3), profile.Meta{Source: "reloaded.json", Backend: "simulated/test"})
	if gen != 2 {
		t.Fatalf("reload returned generation %d, want 2", gen)
	}
	after, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "min-predicted"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Profile != "reloaded.json" {
		t.Fatalf("post-reload provenance %q", after.Profile)
	}
	s := e.Stats()
	if s.Profile == nil || s.Profile.ID != "reloaded.json" || s.Profile.Generation != 2 {
		t.Fatalf("stats provenance %+v", s.Profile)
	}
}

// TestEngineReloadProfilesEnablesStrategies: an engine booted without
// profiles answers profile-backed strategies degraded; after a reload
// installs a store, the same query answers undegraded. The feedback
// path gains its consumer the same way.
func TestEngineReloadProfilesEnablesStrategies(t *testing.T) {
	e := New(Config{})
	inst := expr.Instance{80, 514, 768}
	q := Query{Expr: "aatb", Instance: inst, Strategy: "min-predicted"}
	rec, err := ask(context.Background(), e, q)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Degraded != DegradedNoProfile {
		t.Fatalf("expected degradation without profiles: %+v", rec)
	}
	if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: 1, Seconds: 1e-3}); err == nil {
		t.Fatal("feedback accepted without a consumer")
	}

	timer := exec.NewTimer(exec.NewDefaultSimulated())
	timer.Reps = 2
	e.ReloadProfiles(profile.MeasureSet(timer, 3), profile.Meta{Source: "p.json"})
	rec, err = ask(context.Background(), e, q)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Degraded != "" || rec.Strategy != "min-predicted" || rec.Profile != "p.json" {
		t.Fatalf("post-reload record %+v", rec)
	}
	if err := e.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: 1, Seconds: 1e-3}); err != nil {
		t.Fatalf("feedback after reload: %v", err)
	}
}

// slowExecutor wraps the simulated backend with a fixed wall-clock delay
// per repetition, so tests can make a deadline expire mid-measurement.
type slowExecutor struct {
	exec.Executor
	delay time.Duration
}

func (s slowExecutor) TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64 {
	time.Sleep(s.delay)
	return s.Executor.TimeAlgorithm(alg, rep)
}

func (s slowExecutor) TimeCallCold(call kernels.Call, rep uint64) float64 {
	time.Sleep(s.delay)
	return s.Executor.TimeCallCold(call, rep)
}

// TestEngineQueryCtxExpiredFailsFast: a context that is already done
// fails immediately with its error — no binding, no measuring.
func TestEngineQueryCtxExpiredFailsFast(t *testing.T) {
	e := New(Config{Executor: slowExecutor{exec.NewDefaultSimulated(), 50 * time.Millisecond}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := ask(ctx, e, Query{Expr: "aatb", Instance: expr.Instance{40, 50, 60}, Strategy: "oracle"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("expired query took %v, want immediate failure", d)
	}
}

// TestEngineDeadlineDegradesTimedStrategy is the graceful-degradation
// pin: an oracle query whose deadline expires mid-measurement answers
// from FLOP counts (min-flops) with requested strategy and reason
// stamped, instead of blocking past the deadline or erroring.
func TestEngineDeadlineDegradesTimedStrategy(t *testing.T) {
	e := New(Config{Executor: slowExecutor{exec.NewDefaultSimulated(), 30 * time.Millisecond}, Reps: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	rec, err := ask(ctx, e, Query{Expr: "aatb", Instance: expr.Instance{40, 50, 60}, Strategy: "oracle"})
	if err != nil {
		t.Fatalf("deadline mid-measurement should degrade, got error %v", err)
	}
	if rec.Strategy != "min-flops" || rec.Requested != "oracle" || rec.Degraded != DegradedDeadline {
		t.Fatalf("degraded record not stamped: %+v", rec)
	}
	// The degraded answer is the min-flops answer.
	want, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: expr.Instance{40, 50, 60}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Selected.Index != want.Selected.Index {
		t.Fatalf("degraded pick %d differs from min-flops pick %d", rec.Selected.Index, want.Selected.Index)
	}
	if s := e.Stats(); s.DegradedQueries != 1 {
		t.Fatalf("degraded counter %d", s.DegradedQueries)
	}
}

// TestEngineQueryCtxWaiterAbandonsSlowLeader: a deduplicated waiter
// honours its own context — one slow leader cannot hold a cancelled
// request hostage.
func TestEngineQueryCtxWaiterAbandonsSlowLeader(t *testing.T) {
	e := New(Config{})
	q := Query{Expr: "aatb", Instance: expr.Instance{10, 20, 30}}
	key := "aatb|(10,20,30)|min-flops"
	f := &flight{done: make(chan struct{})}
	e.sfMu.Lock()
	e.inflight[key] = f
	e.sfMu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ask(ctx, e, q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("waiter hostage for %v", d)
	}
	// Unblock the planted flight so nothing leaks.
	e.sfMu.Lock()
	delete(e.inflight, key)
	e.sfMu.Unlock()
	close(f.done)
}

// TestEngineSnapshotRestoreOutcomes drives the durability loop at the
// engine level: feedback in, snapshot out, restore into a fresh engine,
// and the restored evidence steers an adaptive query exactly as the
// live evidence did. Invalid snapshot records (unknown expression,
// algorithm index out of range) are skipped, not fatal.
func TestEngineSnapshotRestoreOutcomes(t *testing.T) {
	e := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	base, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
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
	steered, err := ask(context.Background(), e, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	if steered.Selected.Index == base.Selected.Index {
		t.Fatal("feedback did not steer the source engine")
	}

	snap := e.SnapshotOutcomes()
	if snap.Profile != "test-profile.json" || len(snap.Records) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	// Poison the snapshot with records this process cannot resolve.
	snap.Records = append(snap.Records,
		outcomes.SnapshotRecord{Expr: "no-such-expr", Instance: expr.Instance{2, 3, 4},
			Outcomes: []outcomes.SnapshotOutcome{{Algorithm: 1, Count: 1, Weight: 1, Mean: 0.5}}},
		outcomes.SnapshotRecord{Expr: "AATB", Instance: expr.Instance{9, 9, 9},
			Outcomes: []outcomes.SnapshotOutcome{{Algorithm: 99, Count: 1, Weight: 1, Mean: 0.5}}},
	)

	e2 := profiledEngine(t, Config{})
	restored, skipped := e2.RestoreOutcomes(snap)
	if restored != base.NumAlgorithms || skipped != 2 {
		t.Fatalf("restored %d skipped %d, want %d/2", restored, skipped, base.NumAlgorithms)
	}
	s := e2.Stats()
	if s.FeedbackRestored != uint64(base.NumAlgorithms) || s.FeedbackInstances != 1 {
		t.Fatalf("restore counters %+v", s)
	}
	rec, err := ask(context.Background(), e2, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Selected.Index != steered.Selected.Index {
		t.Fatalf("restored engine picks %d, source picked %d", rec.Selected.Index, steered.Selected.Index)
	}
}

// TestEngineMergeOutcomes drives the gossip loop at the engine level:
// feedback on one engine, local snapshot out, merge into a second
// engine, and the merged evidence steers the receiver's adaptive
// queries. Merging is idempotent, counted in stats, and the receiver's
// own local export excludes the peer's evidence (anti-echo).
func TestEngineMergeOutcomes(t *testing.T) {
	a := profiledEngine(t, Config{})
	inst := expr.Instance{80, 514, 768}
	base, err := ask(context.Background(), a, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		for alg := 1; alg <= base.NumAlgorithms; alg++ {
			sec := 1e-6
			if alg == base.Selected.Index {
				sec = 10.0
			}
			if err := a.Feedback(Feedback{Expr: "aatb", Instance: inst, Algorithm: alg, Seconds: sec}); err != nil {
				t.Fatal(err)
			}
		}
	}
	steered, err := ask(context.Background(), a, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	if steered.Selected.Index == base.Selected.Index {
		t.Fatal("feedback did not steer the source engine")
	}

	snap := a.SnapshotLocalOutcomes()
	b := profiledEngine(t, Config{})
	merged, skipped := b.MergeOutcomes("http://peer-a", snap, 1)
	if merged != base.NumAlgorithms || skipped != 0 {
		t.Fatalf("merged %d skipped %d, want %d/0", merged, skipped, base.NumAlgorithms)
	}
	rec, err := ask(context.Background(), b, Query{Expr: "aatb", Instance: inst, Strategy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Selected.Index != steered.Selected.Index {
		t.Fatalf("merged engine picks %d, source picked %d", rec.Selected.Index, steered.Selected.Index)
	}

	// Re-delivery is a no-op on the evidence and visible in the counters.
	b.MergeOutcomes("http://peer-a", snap, 1)
	s := b.Stats()
	if s.MergeRequests != 2 || s.MergedOutcomes != uint64(2*base.NumAlgorithms) {
		t.Fatalf("merge counters requests=%d outcomes=%d", s.MergeRequests, s.MergedOutcomes)
	}
	if s.AdaptiveInformed == 0 {
		t.Fatal("merged evidence did not inform the adaptive query")
	}
	if s.FeedbackInstances != 1 {
		t.Fatalf("feedback instances %d", s.FeedbackInstances)
	}

	// b's gossip export carries only its own (empty) firsthand evidence;
	// its durability snapshot keeps the merged streams, source-tagged.
	if local := b.SnapshotLocalOutcomes(); len(local.Records) != 0 {
		t.Fatalf("local export leaked merged evidence: %+v", local.Records)
	}
	full := b.SnapshotOutcomes()
	if len(full.Records) != 1 || len(full.Records[0].Outcomes) != base.NumAlgorithms {
		t.Fatalf("full snapshot %+v", full.Records)
	}
	for _, o := range full.Records[0].Outcomes {
		if o.Source != "http://peer-a" {
			t.Fatalf("merged outcome lost its source tag: %+v", o)
		}
	}
}
