package blas

import (
	"sync/atomic"
	"testing"

	"lamb/internal/mat"
	"lamb/internal/par"
	"lamb/internal/xrand"
)

// Tests for the throughput overhaul: the 8×4 micro-kernel over ragged and
// transposed shapes, the shared-B parallel GEMM, the parallel SYRK/SYMM
// block drivers, the blocked Cholesky panel solve, and the pooled packing
// buffers' zero-allocation steady state.

// TestGemm8x4RaggedTransposedBeta cross-checks the packed GEMM against the
// naive reference over shapes that exercise every ragged-tile combination
// of the 8×4 kernel (m mod 8 and n mod 4 nonzero), all four transpose
// settings, and beta ∈ {0, 1, 0.5}.
func TestGemm8x4RaggedTransposedBeta(t *testing.T) {
	rng := xrand.New(71)
	shapes := [][3]int{
		{1, 1, 1}, {7, 3, 5}, {8, 4, 16}, {9, 5, 17}, {15, 7, 3},
		{16, 8, 32}, {17, 9, 33}, {23, 13, 64}, {64, 64, 1}, {65, 61, 67},
		{129, 33, 31}, {5, 130, 2},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, beta := range []float64{0, 1, 0.5} {
					ar, ac := m, k
					if transA {
						ar, ac = k, m
					}
					br, bc := k, n
					if transB {
						br, bc = n, k
					}
					a := mat.NewRandom(ar, ac, rng)
					b := mat.NewRandom(br, bc, rng)
					c := mat.NewRandom(m, n, rng)
					want := c.Clone()
					Gemm(transA, transB, 1.25, a, b, beta, c)
					NaiveGemm(transA, transB, 1.25, a, b, beta, want)
					if !mat.EqualApprox(c, want, 1e-10*float64(k+1)) {
						t.Fatalf("gemm(%d,%d,%d) tA=%v tB=%v beta=%v: max diff %g",
							m, n, k, transA, transB, beta, mat.MaxAbsDiff(c, want))
					}
				}
			}
		}
	}
}

// TestGemmSharedBParallel exercises both parallel fan-outs — over ic
// blocks (tall A) and over packed-B micro-panels (short-and-wide A) —
// with a forced worker count. Run with -race to check the shared packed-B
// buffer is read-only across goroutines.
func TestGemmSharedBParallel(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	rng := xrand.New(72)
	cases := [][3]int{
		{300, 70, 80},   // several ic blocks
		{64, 500, 100},  // single ic block: packed-B column split
		{130, 130, 300}, // two ic blocks, k spans two kc panels
	}
	for _, sh := range cases {
		m, n, k := sh[0], sh[1], sh[2]
		a := mat.NewRandom(m, k, rng)
		b := mat.NewRandom(k, n, rng)
		c := mat.NewRandom(m, n, rng)
		want := c.Clone()
		Gemm(false, false, 1, a, b, 0.5, c)
		NaiveGemm(false, false, 1, a, b, 0.5, want)
		if !mat.EqualApprox(c, want, 1e-10*float64(k)) {
			t.Fatalf("parallel gemm(%d,%d,%d): max diff %g", m, n, k, mat.MaxAbsDiff(c, want))
		}
	}
}

// TestSyrkParallelMatchesNaive forces the parallel block driver (several
// blocks, worker cap above one) for both triangles and beta cases.
func TestSyrkParallelMatchesNaive(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	rng := xrand.New(73)
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		for _, beta := range []float64{0, 1, 0.5} {
			for _, sh := range [][2]int{{97, 50}, {200, 64}, {300, 33}} {
				m, k := sh[0], sh[1]
				a := mat.NewRandom(m, k, rng)
				c := mat.NewRandom(m, m, rng)
				want := c.Clone()
				Syrk(uplo, 1.5, a, beta, c)
				NaiveSyrk(uplo, 1.5, a, beta, want)
				if !mat.EqualApprox(c, want, 1e-10*float64(k)) {
					t.Fatalf("parallel syrk(%v, m=%d, k=%d, beta=%v): max diff %g",
						uplo, m, k, beta, mat.MaxAbsDiff(c, want))
				}
			}
		}
	}
}

// TestSymmParallelMatchesNaive forces the parallel row-panel driver.
func TestSymmParallelMatchesNaive(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	rng := xrand.New(74)
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		for _, beta := range []float64{0, 1, 0.5} {
			for _, sh := range [][2]int{{97, 60}, {200, 100}} {
				m, n := sh[0], sh[1]
				a := mat.NewRandom(m, m, rng)
				b := mat.NewRandom(m, n, rng)
				c := mat.NewRandom(m, n, rng)
				want := c.Clone()
				Symm(uplo, 0.75, a, b, beta, c)
				NaiveSymm(uplo, 0.75, a, b, beta, want)
				if !mat.EqualApprox(c, want, 1e-10*float64(m)) {
					t.Fatalf("parallel symm(%v, m=%d, n=%d, beta=%v): max diff %g",
						uplo, m, n, beta, mat.MaxAbsDiff(c, want))
				}
			}
		}
	}
}

// TestPotrfBlockedPanelMatchesNaive factors SPD matrices whose sizes span
// several diagonal blocks (so the blocked, GEMM-backed panel solve runs)
// and compares against the unblocked reference.
func TestPotrfBlockedPanelMatchesNaive(t *testing.T) {
	rng := xrand.New(75)
	for _, n := range []int{65, 130, 200, 257} {
		a := mat.NewSPDRandom(n, rng)
		want := a.Clone()
		if err := Potrf(a); err != nil {
			t.Fatalf("Potrf(%d): %v", n, err)
		}
		if err := NaivePotrf(want); err != nil {
			t.Fatalf("NaivePotrf(%d): %v", n, err)
		}
		mat.ZeroTriangle(a, mat.Lower)
		mat.ZeroTriangle(want, mat.Lower)
		if !mat.EqualApprox(a, want, 1e-8) {
			t.Fatalf("potrf(%d): max diff vs naive %g", n, mat.MaxAbsDiff(a, want))
		}
	}
}

// TestTrsmRightLowerTransBlocked checks the blocked right-side panel
// solve directly: X·Lᵀ = B with L spanning several 32-column blocks.
func TestTrsmRightLowerTransBlocked(t *testing.T) {
	rng := xrand.New(76)
	for _, sh := range [][2]int{{5, 33}, {40, 64}, {17, 100}} {
		m, k := sh[0], sh[1]
		l := mat.NewRandom(k, k, rng)
		for i := 0; i < k; i++ {
			l.Set(i, i, 4+rng.Float64()) // well-conditioned
		}
		mat.ZeroTriangle(l, mat.Lower)
		b := mat.NewRandom(m, k, rng)
		x := b.Clone()
		trsmRightLowerTrans(l, x)
		// Verify X·Lᵀ reconstructs B.
		got := mat.New(m, k)
		NaiveGemm(false, true, 1, x, l, 0, got)
		if !mat.EqualApprox(got, b, 1e-9*float64(k)) {
			t.Fatalf("blocked right trsm(m=%d, k=%d): residual %g", m, k, mat.MaxAbsDiff(got, b))
		}
	}
}

// TestGemmSerialZeroAllocSteadyState checks that pooled packing buffers
// make repeated serial Gemm calls allocation-free.
func TestGemmSerialZeroAllocSteadyState(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	rng := xrand.New(77)
	a := mat.NewRandom(160, 96, rng)
	b := mat.NewRandom(96, 120, rng)
	c := mat.New(160, 120)
	Gemm(false, false, 1, a, b, 0, c) // warm the pools
	allocs := testing.AllocsPerRun(10, func() {
		Gemm(false, false, 1, a, b, 0, c)
	})
	if allocs > 0 {
		t.Fatalf("steady-state serial Gemm allocates %v objects per call, want 0", allocs)
	}
}

// TestParallelTasksBoundsGoroutines checks the block drivers' task
// dispatch (par.For, worker count first from workers()): the worker cap is
// respected even when the task count exceeds it, and every task runs once.
func TestParallelTasksBoundsGoroutines(t *testing.T) {
	for _, tc := range []struct{ nw, ntasks int }{{1, 7}, {3, 10}, {8, 2}, {4, 0}} {
		hits := make([]atomic.Int32, tc.ntasks)
		var live, peak atomic.Int32
		par.For(tc.ntasks, tc.nw, func(task int) {
			cur := live.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			hits[task].Add(1)
			live.Add(-1)
		})
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("nw=%d ntasks=%d: task %d ran %d times", tc.nw, tc.ntasks, i, h)
			}
		}
		if peak.Load() > int32(tc.nw) {
			t.Fatalf("nw=%d ntasks=%d: %d tasks in flight", tc.nw, tc.ntasks, peak.Load())
		}
	}
}

// TestParallelColsCoversAligned checks stripe alignment and coverage for
// awkward n/worker combinations. Stripes are disjoint, so the concurrent
// writes into covered touch distinct indices.
func TestParallelColsCoversAligned(t *testing.T) {
	for _, tc := range []struct{ nw, n int }{{4, 100}, {8, 7}, {3, 12}, {5, 1}, {2, 4096}} {
		covered := make([]bool, tc.n)
		var misaligned atomic.Int32
		parallelCols(tc.nw, tc.n, func(lo, hi int) {
			if lo%nr != 0 {
				misaligned.Add(1)
			}
			for j := lo; j < hi; j++ {
				covered[j] = true
			}
		})
		if misaligned.Load() != 0 {
			t.Fatalf("nw=%d n=%d: %d stripes not aligned to nr", tc.nw, tc.n, misaligned.Load())
		}
		for j, ok := range covered {
			if !ok {
				t.Fatalf("nw=%d n=%d: column %d not covered", tc.nw, tc.n, j)
			}
		}
	}
}
