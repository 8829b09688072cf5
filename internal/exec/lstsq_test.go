package exec

import (
	"testing"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

func TestEvaluateAlgorithmLstSqEquivalence(t *testing.T) {
	// All four least-squares algorithms must produce the same X, and X
	// must satisfy the normal equations (A·Aᵀ + R)·X = A·B.
	rng := xrand.New(91)
	d0, d1, d2 := 30, 22, 7
	a := mat.NewRandom(d0, d1, rng)
	b := mat.NewRandom(d1, d2, rng)
	r := mat.NewSPDRandom(d0, rng)
	inputs := map[string]*mat.Dense{"A": a, "B": b, "R": r}

	algs := expr.NewLstSq().Algorithms(expr.Instance{d0, d1, d2})
	var ref *mat.Dense
	for i := range algs {
		// The algorithms factor S and solve in place; EvaluateAlgorithm
		// allocates fresh temporaries per run, but R is an input read by
		// AddSym only — safe to share.
		got := EvaluateAlgorithm(&algs[i], inputs)
		if i == 0 {
			ref = got
			continue
		}
		if d := mat.MaxAbsDiff(ref, got); d > 1e-9 {
			t.Fatalf("algorithm %d disagrees with algorithm 1: diff %g", i+1, d)
		}
	}

	// Residual check: (A·Aᵀ + R)·X == A·B.
	s := mat.New(d0, d0)
	blas.Gemm(false, true, 1, a, a, 0, s)
	for j := 0; j < d0; j++ {
		for i := 0; i < d0; i++ {
			s.Set(i, j, s.At(i, j)+r.At(i, j))
		}
	}
	lhs := mat.New(d0, d2)
	blas.Gemm(false, false, 1, s, ref, 0, lhs)
	rhs := mat.New(d0, d2)
	blas.Gemm(false, false, 1, a, b, 0, rhs)
	if d := mat.MaxAbsDiff(lhs, rhs); d > 1e-8 {
		t.Fatalf("normal equations violated: residual %g", d)
	}
}

func TestMeasuredBackendLstSq(t *testing.T) {
	// The measured backend must materialise the SPD regulariser so the
	// in-place Cholesky succeeds, for every algorithm variant.
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	timer := &Timer{Exec: e, Reps: 2}
	algs := expr.NewLstSq().Algorithms(expr.Instance{40, 30, 10})
	for i := range algs {
		m := measureSet(t, timer, algs[i:i+1])[0]
		if m.Total <= 0 {
			t.Fatalf("algorithm %d total %v", i+1, m.Total)
		}
		if len(m.PerCall) != 6 {
			t.Fatalf("algorithm %d per-call count %d", i+1, len(m.PerCall))
		}
	}
}

func TestMeasuredColdCallsForNewKinds(t *testing.T) {
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	calls := expr.NewLstSq().Algorithms(expr.Instance{32, 24, 8})[0].Calls
	for _, c := range calls {
		if tt := e.TimeCallCold(c, 0); tt <= 0 {
			t.Fatalf("%s cold time %v", c, tt)
		}
	}
}

func TestSimulatedBackendLstSq(t *testing.T) {
	s := NewDefaultSimulated()
	timer := NewTimer(s)
	algs := expr.NewLstSq().Algorithms(expr.Instance{150, 700, 90})
	times := measureSet(t, timer, algs)
	for i, m := range times {
		if m.Total <= 0 {
			t.Fatalf("algorithm %d total %v", i+1, m.Total)
		}
	}
	// Order variants (1 vs 2) share calls but see different cache states:
	// totals must differ, and the later-RHS variant benefits from a warm
	// A when computing gemm(A·B)... either way they must not be equal.
	if times[0].Total == times[1].Total {
		t.Fatal("order variants should differ through inter-kernel cache effects")
	}
}
