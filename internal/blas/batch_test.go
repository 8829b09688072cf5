package blas

import (
	"runtime"
	"strings"
	"testing"

	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// slab builds a batch of count rows×cols instances laid out at the given
// stride (in float64s), filled from rng, and returns the instance-0
// header over the slab.
func slab(rows, cols, stride, count int, rng *xrand.Rand) *mat.Dense {
	data := make([]float64, stride*count)
	for i := range data {
		data[i] = 2*rng.Float64() - 1
	}
	return &mat.Dense{Rows: rows, Cols: cols, Stride: max(rows, 1), Data: data}
}

// cloneSlab deep-copies a slab base header.
func cloneSlab(base *mat.Dense) *mat.Dense {
	v := *base
	v.Data = append([]float64(nil), base.Data...)
	return &v
}

// equalInstances reports whether every instance of the two slabs is
// bitwise equal.
func equalInstances(t *testing.T, want, got *mat.Dense, stride, count int, label string) {
	t.Helper()
	for i := 0; i < count; i++ {
		wv := instView(want, stride, i)
		gv := instView(got, stride, i)
		if !mat.Equal(&wv, &gv) {
			t.Errorf("%s: instance %d differs from sequential result", label, i)
		}
	}
}

// TestGemmBatchMatchesSequential pins GemmBatch bitwise equal to calling
// Gemm once per instance, across fused shapes, fallback shapes, chunked
// batches (instances too big to all fit the packing buffers at once),
// padded strides, transposes, and the alpha/beta special cases.
func TestGemmBatchMatchesSequential(t *testing.T) {
	cases := []struct {
		m, k, n     int
		alpha, beta float64
		count, pad  int
	}{
		{8, 8, 8, 1, 0, 4, 0},
		{13, 7, 5, 1, 1, 3, 17},
		{24, 16, 8, 1.5, -0.5, 7, 0},
		{64, 64, 64, 1, 0, 5, 3},
		{96, 100, 40, -2, 2, 3, 0},
		{128, 256, 32, 1, 0, 3, 0}, // packedA == mc·kc → chunk == 1, multi-chunk loop
		{130, 40, 20, 1, 1, 2, 0},  // m > mc → per-instance fallback
		{40, 300, 20, 1, 1, 2, 0},  // k > kc → per-instance fallback
		{8, 8, 8, 0, 0.5, 3, 0},    // alpha == 0 → pure beta scaling
		{8, 0, 8, 1, 2, 3, 5},      // k == 0 → pure beta scaling
	}
	for _, tc := range cases {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				rng := xrand.New(0xba7c4)
				ar, ac := tc.m, tc.k
				if transA {
					ar, ac = tc.k, tc.m
				}
				br, bc := tc.k, tc.n
				if transB {
					br, bc = tc.n, tc.k
				}
				strideA := ar*ac + tc.pad
				strideB := br*bc + tc.pad
				strideC := tc.m*tc.n + tc.pad
				a := slab(ar, ac, max(strideA, 1), tc.count, rng)
				b := slab(br, bc, max(strideB, 1), tc.count, rng)
				c := slab(tc.m, tc.n, strideC, tc.count, rng)
				want := cloneSlab(c)
				for i := 0; i < tc.count; i++ {
					av := instView(a, strideA, i)
					bv := instView(b, strideB, i)
					cv := instView(want, strideC, i)
					Gemm(transA, transB, tc.alpha, &av, &bv, tc.beta, &cv)
				}
				GemmBatch(transA, transB, tc.alpha, a, strideA, b, strideB, tc.beta, c, strideC, tc.count)
				equalInstances(t, want, c, strideC, tc.count, "gemm batch")
			}
		}
	}
}

// TestSyrkBatchMatchesSequential pins SyrkBatch bitwise equal to Syrk /
// SyrkT per instance, both triangles, both orientations, fused and
// fallback sizes. The opposite strict triangle must stay untouched.
func TestSyrkBatchMatchesSequential(t *testing.T) {
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		for _, trans := range []bool{false, true} {
			for _, dims := range [][2]int{{1, 1}, {8, 16}, {33, 7}, {96, 64}, {97, 20}, {120, 33}, {8, 0}} {
				m, k := dims[0], dims[1]
				rng := xrand.New(0x5f3c)
				ar, ac := m, k
				if trans {
					ar, ac = k, m
				}
				strideA := max(ar*ac, 1) + 5
				strideC := m*m + 5
				const count = 3
				a := slab(ar, ac, strideA, count, rng)
				c := slab(m, m, strideC, count, rng)
				want := cloneSlab(c)
				for i := 0; i < count; i++ {
					av := instView(a, strideA, i)
					cv := instView(want, strideC, i)
					if trans {
						SyrkT(uplo, 1.5, &av, 0.5, &cv)
					} else {
						Syrk(uplo, 1.5, &av, 0.5, &cv)
					}
				}
				SyrkBatch(uplo, trans, 1.5, a, strideA, 0.5, c, strideC, count)
				equalInstances(t, want, c, strideC, count, "syrk batch")
			}
		}
	}
}

// TestSymmBatchMatchesSequential pins SymmBatch bitwise equal to Symm
// per instance across triangles and fused/fallback sizes.
func TestSymmBatchMatchesSequential(t *testing.T) {
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		for _, dims := range [][2]int{{1, 1}, {10, 5}, {96, 40}, {97, 8}, {130, 20}} {
			m, n := dims[0], dims[1]
			rng := xrand.New(0x577)
			strideA := m*m + 3
			strideB := m*n + 3
			strideC := m*n + 3
			const count = 3
			a := slab(m, m, strideA, count, rng)
			b := slab(m, n, strideB, count, rng)
			c := slab(m, n, strideC, count, rng)
			want := cloneSlab(c)
			for i := 0; i < count; i++ {
				av := instView(a, strideA, i)
				bv := instView(b, strideB, i)
				cv := instView(want, strideC, i)
				Symm(uplo, 2, &av, &bv, -1, &cv)
			}
			SymmBatch(uplo, 2, a, strideA, b, strideB, -1, c, strideC, count)
			equalInstances(t, want, c, strideC, count, "symm batch")
		}
	}
}

// TestTrsmBatchMatchesSequential pins TrsmBatch bitwise equal to Trsm per
// instance across triangles, transposes, alphas, and fused/fallback
// sizes.
func TestTrsmBatchMatchesSequential(t *testing.T) {
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		for _, transL := range []bool{false, true} {
			for _, alpha := range []float64{1, 0.5} {
				for _, dims := range [][2]int{{1, 1}, {8, 5}, {64, 16}, {65, 16}, {100, 7}} {
					m, n := dims[0], dims[1]
					rng := xrand.New(0x7e5)
					strideL := m*m + 9
					strideB := m*n + 9
					const count = 3
					l := slab(m, m, strideL, count, rng)
					// Dominant diagonal keeps every triangular solve
					// well-conditioned.
					for i := 0; i < count; i++ {
						lv := instView(l, strideL, i)
						for d := 0; d < m; d++ {
							lv.Set(d, d, 4+lv.At(d, d))
						}
					}
					b := slab(m, n, strideB, count, rng)
					want := cloneSlab(b)
					for i := 0; i < count; i++ {
						lv := instView(l, strideL, i)
						bv := instView(want, strideB, i)
						Trsm(uplo, transL, alpha, &lv, &bv)
					}
					TrsmBatch(uplo, transL, alpha, l, strideL, b, strideB, count)
					equalInstances(t, want, b, strideB, count, "trsm batch")
				}
			}
		}
	}
}

// TestPotrfBatchMatchesSequential pins PotrfBatch bitwise equal to Potrf
// per instance, and checks that a non-SPD instance aborts the batch with
// an error naming it.
func TestPotrfBatchMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 8, 64, 65, 100} {
		rng := xrand.New(0x90d)
		strideA := n*n + 7
		const count = 3
		a := slab(n, n, strideA, count, rng)
		for i := 0; i < count; i++ {
			av := instView(a, strideA, i)
			spd := mat.NewSPDRandom(n, rng)
			sv := av.View(0, n, 0, n)
			mat.Copy(&sv, spd)
		}
		want := cloneSlab(a)
		for i := 0; i < count; i++ {
			av := instView(want, strideA, i)
			if err := Potrf(&av); err != nil {
				t.Fatalf("n=%d: sequential Potrf failed: %v", n, err)
			}
		}
		if err := PotrfBatch(a, strideA, count); err != nil {
			t.Fatalf("n=%d: PotrfBatch failed: %v", n, err)
		}
		equalInstances(t, want, a, strideA, count, "potrf batch")
	}

	// Instance 1 is indefinite: the batch must fail and name it.
	rng := xrand.New(0xbad)
	const n, count = 8, 3
	stride := n * n
	a := slab(n, n, stride, count, rng)
	for i := 0; i < count; i++ {
		av := instView(a, stride, i)
		spd := mat.NewSPDRandom(n, rng)
		sv := av.View(0, n, 0, n)
		mat.Copy(&sv, spd)
	}
	bad := instView(a, stride, 1)
	bad.Set(0, 0, -1)
	err := PotrfBatch(a, stride, count)
	if err == nil {
		t.Fatal("PotrfBatch accepted an indefinite instance")
	}
	if !strings.Contains(err.Error(), "instance 1") {
		t.Errorf("PotrfBatch error %q does not name instance 1", err)
	}
}

// TestAddSymTri2FullBatch pins the batched triangle helpers against
// their per-instance forms.
func TestAddSymTri2FullBatch(t *testing.T) {
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		rng := xrand.New(0xadd)
		const n, count = 17, 4
		stride := n*n + 1
		c := slab(n, n, stride, count, rng)
		a := slab(n, n, stride, count, rng)
		want := cloneSlab(c)
		for i := 0; i < count; i++ {
			cv := instView(want, stride, i)
			av := instView(a, stride, i)
			AddSym(uplo, &cv, &av)
			Tri2Full(uplo, &cv)
		}
		AddSymBatch(uplo, c, stride, a, stride, count)
		Tri2FullBatch(uplo, c, stride, count)
		equalInstances(t, want, c, stride, count, "addsym+tri2full batch")
	}
}

// TestGemmBatchFusedZeroAllocs asserts the fused batch path performs no
// heap allocations in steady state, in one part and in several: the
// job descriptor and buffer sets from the free lists, and in parallel
// the persistent workers' own buffer sets, are the only backing storage
// it needs.
func TestGemmBatchFusedZeroAllocs(t *testing.T) {
	rng := xrand.New(0xa110c)
	const m, k, n, count = 24, 16, 8, 16
	a := slab(m, k, m*k, count, rng)
	b := slab(k, n, k*n, count, rng)
	c := slab(m, n, m*n, count, rng)
	for _, w := range []int{1, 2} {
		defer SetMaxWorkers(SetMaxWorkers(w))
		GemmBatch(false, false, 1, a, m*k, b, k*n, 0, c, m*n, count) // warm pools + workers
		allocs := testing.AllocsPerRun(10, func() {
			GemmBatch(false, false, 1, a, m*k, b, k*n, 0, c, m*n, count)
		})
		if allocs != 0 {
			t.Errorf("workers=%d: fused GemmBatch allocates %v times per call, want 0", w, allocs)
		}
	}
}

// TestBatchDriversWarmZeroAllocs pins that every batched driver, warm,
// allocates nothing per call at worker caps 1 and 2, also right after
// two garbage collections: the job descriptors, the packing buffers and
// the workers' buffer sets are all kept where no collection empties
// them.
func TestBatchDriversWarmZeroAllocs(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(0))
	rng := xrand.New(0xa110c2)
	const m, k, n, count = 24, 16, 8, 16
	a := slab(m, k, m*k, count, rng)
	b := slab(k, n, k*n, count, rng)
	c := slab(m, n, m*n, count, rng)
	d := slab(m, n, m*n, count, rng)
	sq := slab(m, m, m*m, count, rng)
	tri := slab(m, m, m*m, count, rng)
	spd := slab(m, m, m*m, count, rng)
	for i := 0; i < count; i++ {
		tv := instView(tri, m*m, i)
		sv := instView(spd, m*m, i)
		mat.Copy(&sv, mat.NewSPDRandom(m, rng))
		for j := 0; j < m; j++ {
			tv.Set(j, j, 4+tv.At(j, j))
		}
	}
	fact := cloneSlab(spd)
	drivers := []struct {
		name string
		run  func()
	}{
		{"gemm", func() { GemmBatch(false, false, 1, a, m*k, b, k*n, 0.5, c, m*n, count) }},
		{"syrk", func() { SyrkBatch(mat.Lower, false, 1, a, m*k, 0.5, sq, m*m, count) }},
		{"symm", func() { SymmBatch(mat.Lower, 1, spd, m*m, c, m*n, 0, d, m*n, count) }},
		{"trsm", func() { TrsmBatch(mat.Lower, false, 1, tri, m*m, c, m*n, count) }},
		{"potrf", func() {
			copy(fact.Data, spd.Data)
			if err := PotrfBatch(fact, m*m, count); err != nil {
				t.Fatal(err)
			}
		}},
		{"addsym", func() { AddSymBatch(mat.Lower, sq, m*m, spd, m*m, count) }},
		{"tri2full", func() { Tri2FullBatch(mat.Lower, sq, m*m, count) }},
	}
	for _, w := range []int{1, 2} {
		SetMaxWorkers(w)
		for _, dr := range drivers {
			dr.run() // warm the free lists and the workers
			allocs := testing.AllocsPerRun(10, func() {
				runtime.GC()
				runtime.GC()
				dr.run()
			})
			if allocs != 0 {
				t.Errorf("%s workers=%d: %v allocations per call after two collections, want 0", dr.name, w, allocs)
			}
		}
	}
}

// TestBatchDriversParallelMatchSequential pins the parallel tier: every
// batched driver produces bitwise-identical slabs at worker caps 1, 2,
// and 4, and two runs at the same cap agree (determinism under dynamic
// part handout). The reference is the per-instance sequential result.
func TestBatchDriversParallelMatchSequential(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(0))
	const count = 32 // wide enough that every cap actually partitions

	type driver struct {
		name string
		run  func(t *testing.T) (got, want *mat.Dense, stride int)
	}
	drivers := []driver{
		{"gemm", func(t *testing.T) (*mat.Dense, *mat.Dense, int) {
			rng := xrand.New(0x9a11)
			const m, k, n = 24, 16, 12
			a := slab(m, k, m*k+3, count, rng)
			b := slab(k, n, k*n+3, count, rng)
			c := slab(m, n, m*n+3, count, rng)
			want := cloneSlab(c)
			prev := SetMaxWorkers(1)
			for i := 0; i < count; i++ {
				av := instView(a, m*k+3, i)
				bv := instView(b, k*n+3, i)
				cv := instView(want, m*n+3, i)
				Gemm(false, false, 1.5, &av, &bv, -0.5, &cv)
			}
			SetMaxWorkers(prev)
			GemmBatch(false, false, 1.5, a, m*k+3, b, k*n+3, -0.5, c, m*n+3, count)
			return c, want, m*n + 3
		}},
		{"syrk", func(t *testing.T) (*mat.Dense, *mat.Dense, int) {
			rng := xrand.New(0x9a12)
			const m, k = 33, 17
			a := slab(m, k, m*k+1, count, rng)
			c := slab(m, m, m*m+1, count, rng)
			want := cloneSlab(c)
			prev := SetMaxWorkers(1)
			for i := 0; i < count; i++ {
				av := instView(a, m*k+1, i)
				cv := instView(want, m*m+1, i)
				Syrk(mat.Lower, 1.5, &av, 0.5, &cv)
			}
			SetMaxWorkers(prev)
			SyrkBatch(mat.Lower, false, 1.5, a, m*k+1, 0.5, c, m*m+1, count)
			return c, want, m*m + 1
		}},
		{"symm", func(t *testing.T) (*mat.Dense, *mat.Dense, int) {
			rng := xrand.New(0x9a13)
			const m, n = 20, 9
			a := slab(m, m, m*m+5, count, rng)
			b := slab(m, n, m*n+5, count, rng)
			c := slab(m, n, m*n+5, count, rng)
			want := cloneSlab(c)
			prev := SetMaxWorkers(1)
			for i := 0; i < count; i++ {
				av := instView(a, m*m+5, i)
				bv := instView(b, m*n+5, i)
				cv := instView(want, m*n+5, i)
				Symm(mat.Lower, 2, &av, &bv, -1, &cv)
			}
			SetMaxWorkers(prev)
			SymmBatch(mat.Lower, 2, a, m*m+5, b, m*n+5, -1, c, m*n+5, count)
			return c, want, m*n + 5
		}},
		{"trsm", func(t *testing.T) (*mat.Dense, *mat.Dense, int) {
			rng := xrand.New(0x9a14)
			const m, n = 16, 7
			l := slab(m, m, m*m+2, count, rng)
			for i := 0; i < count; i++ {
				lv := instView(l, m*m+2, i)
				for d := 0; d < m; d++ {
					lv.Set(d, d, 4+lv.At(d, d))
				}
			}
			b := slab(m, n, m*n+2, count, rng)
			want := cloneSlab(b)
			prev := SetMaxWorkers(1)
			for i := 0; i < count; i++ {
				lv := instView(l, m*m+2, i)
				bv := instView(want, m*n+2, i)
				Trsm(mat.Lower, false, 0.5, &lv, &bv)
			}
			SetMaxWorkers(prev)
			TrsmBatch(mat.Lower, false, 0.5, l, m*m+2, b, m*n+2, count)
			return b, want, m*n + 2
		}},
		{"potrf", func(t *testing.T) (*mat.Dense, *mat.Dense, int) {
			rng := xrand.New(0x9a15)
			const n = 12
			a := slab(n, n, n*n+4, count, rng)
			for i := 0; i < count; i++ {
				av := instView(a, n*n+4, i)
				spd := mat.NewSPDRandom(n, rng)
				sv := av.View(0, n, 0, n)
				mat.Copy(&sv, spd)
			}
			want := cloneSlab(a)
			prev := SetMaxWorkers(1)
			for i := 0; i < count; i++ {
				av := instView(want, n*n+4, i)
				if err := Potrf(&av); err != nil {
					t.Fatalf("sequential Potrf failed: %v", err)
				}
			}
			SetMaxWorkers(prev)
			if err := PotrfBatch(a, n*n+4, count); err != nil {
				t.Fatalf("PotrfBatch failed: %v", err)
			}
			return a, want, n*n + 4
		}},
		{"addsym+tri2full", func(t *testing.T) (*mat.Dense, *mat.Dense, int) {
			rng := xrand.New(0x9a16)
			const n = 15
			c := slab(n, n, n*n+6, count, rng)
			a := slab(n, n, n*n+6, count, rng)
			want := cloneSlab(c)
			prev := SetMaxWorkers(1)
			for i := 0; i < count; i++ {
				cv := instView(want, n*n+6, i)
				av := instView(a, n*n+6, i)
				AddSym(mat.Lower, &cv, &av)
				Tri2Full(mat.Lower, &cv)
			}
			SetMaxWorkers(prev)
			AddSymBatch(mat.Lower, c, n*n+6, a, n*n+6, count)
			Tri2FullBatch(mat.Lower, c, n*n+6, count)
			return c, want, n*n + 6
		}},
	}
	for _, w := range []int{1, 2, 4} {
		SetMaxWorkers(w)
		for _, d := range drivers {
			got1, want, stride := d.run(t)
			equalInstances(t, want, got1, stride, count, d.name+" workers="+string(rune('0'+w)))
			// Determinism: a second run at the same cap is bitwise equal
			// regardless of how the dynamic part handout interleaved.
			got2, _, _ := d.run(t)
			equalInstances(t, got1, got2, stride, count, d.name+" rerun workers="+string(rune('0'+w)))
		}
	}
}

// TestPotrfBatchParallelNamesLowestFailure pins the parallel tier's
// error semantics: with several indefinite instances, the reported
// instance is the lowest-indexed one — what sequential execution, which
// stops at the first failure, would name.
func TestPotrfBatchParallelNamesLowestFailure(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	rng := xrand.New(0xbadbad)
	const n, count = 8, 32
	stride := n * n
	a := slab(n, n, stride, count, rng)
	for i := 0; i < count; i++ {
		av := instView(a, stride, i)
		spd := mat.NewSPDRandom(n, rng)
		sv := av.View(0, n, 0, n)
		mat.Copy(&sv, spd)
	}
	for _, i := range []int{29, 5, 17} {
		bad := instView(a, stride, i)
		bad.Set(0, 0, -1)
	}
	err := PotrfBatch(a, stride, count)
	if err == nil {
		t.Fatal("PotrfBatch accepted indefinite instances")
	}
	if !strings.Contains(err.Error(), "instance 5") {
		t.Errorf("PotrfBatch error %q does not name the lowest failing instance 5", err)
	}
}
