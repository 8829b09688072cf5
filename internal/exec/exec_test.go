package exec

import (
	"context"
	"errors"
	"testing"

	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/machine"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

func TestSimulatedDeterministic(t *testing.T) {
	s1 := NewDefaultSimulated()
	s2 := NewDefaultSimulated()
	algs := expr.NewAATB().Algorithms(expr.Instance{100, 200, 300})
	for i := range algs {
		t1 := s1.TimeAlgorithm(&algs[i], 3)
		t2 := s2.TimeAlgorithm(&algs[i], 3)
		for j := range t1 {
			if t1[j] != t2[j] {
				t.Fatalf("simulated backend not deterministic: alg %d call %d", i, j)
			}
		}
	}
}

func TestSimulatedWarmSecondCall(t *testing.T) {
	// In AATB algorithm 4, the second GEMM consumes M1 produced by the
	// first — it must be faster in sequence than in isolation (same rep
	// noise would differ, so compare against noise-free cold time).
	s := NewDefaultSimulated()
	algs := expr.NewAATB().Algorithms(expr.Instance{200, 200, 200})
	a4 := algs[3]
	times := s.TimeAlgorithm(&a4, 0)
	coldSecond := s.Machine().ColdTime(a4.Calls[1])
	if times[1] >= coldSecond {
		t.Fatalf("second call in sequence (%.3g) should beat noise-free cold time (%.3g) thanks to warm M1",
			times[1], coldSecond)
	}
}

func TestSimulatedColdBenchDiffersFromInSequence(t *testing.T) {
	s := NewDefaultSimulated()
	call := kernels.NewGemm(300, 300, 300, "A", "B", "C", false, false)
	inSeq := s.Machine().Time(call, 0, 5)
	bench := s.TimeCallCold(call, 5)
	if inSeq == bench {
		t.Fatal("isolated benchmark should use an independent noise realisation")
	}
}

func TestTimerMedianProtocol(t *testing.T) {
	s := NewDefaultSimulated()
	timer := NewTimer(s)
	if timer.Reps != 10 {
		t.Fatalf("paper protocol is 10 reps, got %d", timer.Reps)
	}
	algs := expr.NewChainABCD().Algorithms(expr.Instance{50, 60, 70, 80, 90})
	m := measureSet(t, timer, algs[:1])[0]
	if m.Total <= 0 {
		t.Fatal("non-positive total")
	}
	if len(m.PerCall) != 3 {
		t.Fatalf("per-call count %d", len(m.PerCall))
	}
	var sum float64
	for _, ct := range m.PerCall {
		if ct <= 0 {
			t.Fatal("non-positive per-call time")
		}
		sum += ct
	}
	// Median of sums ≈ sum of medians for low noise, never exactly equal
	// in general, but they must be within the noise envelope.
	if sum > m.Total*1.1 || sum < m.Total*0.9 {
		t.Fatalf("sum of medians %.3g far from median total %.3g", sum, m.Total)
	}
}

// measureSet is MeasureSet one instance per repetition under a
// background context, which cannot fail.
func measureSet(t *testing.T, timer *Timer, algs []expr.Algorithm) []Measurement {
	t.Helper()
	ms, err := timer.MeasureSet(context.Background(), algs, 1)
	if err != nil {
		t.Fatalf("MeasureSet: %v", err)
	}
	return ms
}

// TestTimerMeasureSetOrdering checks MeasureSet returns one measurement
// per algorithm in set order: on the deterministic simulated machine
// each equals that algorithm measured alone.
func TestTimerMeasureSetOrdering(t *testing.T) {
	s := NewDefaultSimulated()
	timer := &Timer{Exec: s, Reps: 3}
	algs := expr.NewAATB().Algorithms(expr.Instance{150, 60, 700})
	ms := measureSet(t, timer, algs)
	if len(ms) != 5 {
		t.Fatalf("got %d measurements", len(ms))
	}
	for i, m := range ms {
		if m.Total <= 0 {
			t.Fatalf("alg %d total %v", i+1, m.Total)
		}
		if alone := measureSet(t, timer, algs[i:i+1])[0]; alone.Total != m.Total {
			t.Fatalf("alg %d: set total %v, measured alone %v", i+1, m.Total, alone.Total)
		}
	}
	if ms[0].Total == ms[4].Total {
		t.Fatal("distinct algorithms measured identically")
	}
}

// cancellingExecutor cancels its context during the first repetition
// and counts the repetitions it runs.
type cancellingExecutor struct {
	*Simulated
	cancel context.CancelFunc
	reps   int
}

func (c *cancellingExecutor) TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64 {
	c.reps++
	c.cancel()
	return c.Simulated.TimeAlgorithm(alg, rep)
}

// TestMeasureSetCancelledWithinOneRepetition checks the context is
// honoured between repetitions: cancelled during the first repetition
// of the first algorithm, MeasureSet runs no second one and returns
// ctx.Err().
func TestMeasureSetCancelledWithinOneRepetition(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ce := &cancellingExecutor{Simulated: NewDefaultSimulated(), cancel: cancel}
	timer := &Timer{Exec: ce, Reps: 10}
	algs := expr.NewAATB().Algorithms(expr.Instance{150, 60, 700})
	ms, err := timer.MeasureSet(ctx, algs, 1)
	if !errors.Is(err, context.Canceled) || ms != nil {
		t.Fatalf("MeasureSet = %v, %v; want nil, context.Canceled", ms, err)
	}
	if ce.reps != 1 {
		t.Fatalf("%d repetitions ran after cancellation, want 1", ce.reps)
	}
}

func TestTimerZeroRepsDefaultsToTen(t *testing.T) {
	timer := &Timer{Exec: NewDefaultSimulated()}
	if timer.reps() != 10 {
		t.Fatalf("reps() = %d, want 10", timer.reps())
	}
}

func TestEfficiencyHelpers(t *testing.T) {
	call := kernels.NewGemm(100, 100, 100, "A", "B", "C", false, false)
	e := Efficiency(call, 1e-3, 2e9)
	if want := 2e6 / (1e-3 * 2e9); e != want {
		t.Fatalf("Efficiency = %v, want %v", e, want)
	}
	if Efficiency(call, 0, 1) != 0 || Efficiency(call, 1, 0) != 0 {
		t.Fatal("degenerate efficiency should be 0")
	}
}

func TestEvaluateAlgorithmChainEquivalence(t *testing.T) {
	// All six ABCD algorithms must compute the same product — the
	// mathematical-equivalence property underpinning the whole study.
	rng := xrand.New(77)
	inst := expr.Instance{13, 9, 17, 11, 8}
	inputs := map[string]*mat.Dense{
		"A": mat.NewRandom(13, 9, rng),
		"B": mat.NewRandom(9, 17, rng),
		"C": mat.NewRandom(17, 11, rng),
		"D": mat.NewRandom(11, 8, rng),
	}
	algs := expr.NewChainABCD().Algorithms(inst)
	ref := EvaluateAlgorithm(&algs[0], inputs)
	for i := range algs[1:] {
		got := EvaluateAlgorithm(&algs[i+1], inputs)
		if d := mat.MaxAbsDiff(ref, got); d > 1e-10 {
			t.Fatalf("algorithm %d disagrees with algorithm 1: max diff %g", i+2, d)
		}
	}
}

func TestEvaluateAlgorithmAATBEquivalence(t *testing.T) {
	// All five AAᵀB algorithms must agree, including the SYRK/SYMM paths
	// that only touch triangles and the tri2full copy step.
	rng := xrand.New(78)
	inst := expr.Instance{21, 13, 17}
	inputs := map[string]*mat.Dense{
		"A": mat.NewRandom(21, 13, rng),
		"B": mat.NewRandom(21, 17, rng),
	}
	algs := expr.NewAATB().Algorithms(inst)
	ref := EvaluateAlgorithm(&algs[0], inputs)
	for i := range algs[1:] {
		got := EvaluateAlgorithm(&algs[i+1], inputs)
		if d := mat.MaxAbsDiff(ref, got); d > 1e-10 {
			t.Fatalf("algorithm %d disagrees with algorithm 1: max diff %g", i+2, d)
		}
	}
}

func TestEvaluateAlgorithmRejectsBadInput(t *testing.T) {
	algs := expr.NewAATB().Algorithms(expr.Instance{4, 5, 6})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input shape did not panic")
		}
	}()
	EvaluateAlgorithm(&algs[0], map[string]*mat.Dense{
		"A": mat.New(9, 9),
		"B": mat.New(4, 6),
	})
}

func TestMeasuredBackendSmoke(t *testing.T) {
	e := NewMeasured()
	e.FlushBytes = 4 << 20 // keep the test fast
	timer := &Timer{Exec: e, Reps: 3}
	algs := expr.NewAATB().Algorithms(expr.Instance{48, 32, 40})
	for i := range algs {
		m := measureSet(t, timer, algs[i:i+1])[0]
		if m.Total <= 0 {
			t.Fatalf("alg %d total %v", i+1, m.Total)
		}
	}
	call := kernels.NewGemm(64, 64, 64, "A", "B", "C", false, false)
	if ct := timer.MeasureCallCold(call); ct <= 0 {
		t.Fatalf("cold call time %v", ct)
	}
	if e.Peak() <= 0 {
		t.Fatal("measured peak should be positive")
	}
	if e.Name() == "" || NewDefaultSimulated().Name() == "" {
		t.Fatal("executors must be named")
	}
}

func TestMeasuredTimeCallColdAllKinds(t *testing.T) {
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	calls := []kernels.Call{
		kernels.NewGemm(32, 24, 16, "A", "B", "C", false, false),
		kernels.NewGemm(24, 32, 16, "A", "B", "C", true, true),
		kernels.NewSyrk(32, 16, "A", "C"),
		kernels.NewSyrkT(32, 16, "A", "C"),
		kernels.NewSymm(32, 24, "A", "B", "C"),
		kernels.NewTri2Full(32, "C"),
	}
	for _, c := range calls {
		if tt := e.TimeCallCold(c, 0); tt <= 0 {
			t.Fatalf("%s cold time %v", c, tt)
		}
	}
}

func TestSimulatedAgainstCustomMachine(t *testing.T) {
	cfg := machine.Default()
	cfg.Noise = 0
	s := NewSimulated(machine.New(cfg))
	algs := expr.NewAATB().Algorithms(expr.Instance{300, 100, 200})
	times := s.TimeAlgorithm(&algs[1], 0)
	if len(times) != 3 {
		t.Fatalf("alg 2 should have 3 calls (syrk, tri2full, gemm), got %d", len(times))
	}
	// With zero noise, repetitions agree exactly.
	again := s.TimeAlgorithm(&algs[1], 9)
	for i := range times {
		if times[i] != again[i] {
			t.Fatal("zero-noise machine should be rep-invariant")
		}
	}
}
