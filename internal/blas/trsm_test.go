package blas

import (
	"fmt"
	"math"
	"testing"

	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// trsmOld is Trsm as it was before the small-triangle kernel: the same
// blocking and GEMM updates, with trsmUnblocked on the diagonal blocks.
func trsmOld(uplo mat.Uplo, transL bool, alpha float64, l, b *mat.Dense) {
	m := l.Rows
	if alpha != 1 {
		scaleMatrix(b, alpha)
	}
	if (uplo == mat.Lower) != transL {
		for k0 := 0; k0 < m; k0 += trsmNB {
			k1 := min(k0+trsmNB, m)
			lkk := l.View(k0, k1, k0, k1)
			bk := b.View(k0, k1, 0, b.Cols)
			trsmUnblocked(uplo, transL, &lkk, &bk)
			if k1 < m {
				lik := l.View(k1, m, k0, k1)
				if transL {
					lik = l.View(k0, k1, k1, m)
				}
				btail := b.View(k1, m, 0, b.Cols)
				Gemm(transL, false, -1, &lik, &bk, 1, &btail)
			}
		}
		return
	}
	for k1 := m; k1 > 0; k1 -= trsmNB {
		k0 := max(k1-trsmNB, 0)
		lkk := l.View(k0, k1, k0, k1)
		bk := b.View(k0, k1, 0, b.Cols)
		trsmUnblocked(uplo, transL, &lkk, &bk)
		if k0 > 0 {
			lik := l.View(0, k0, k0, k1)
			if transL {
				lik = l.View(k0, k1, 0, k0)
			}
			bhead := b.View(0, k0, 0, b.Cols)
			Gemm(transL, false, -1, &lik, &bk, 1, &bhead)
		}
	}
}

// trsmUnblocked is the column-at-a-time solve trsmSmall replaced, kept
// as its oracle: it solves op(T)·X = B in place for a small triangular
// block. The inner loops are vectorised by orientation: untransposed
// solves sweep column by column of T (after element p is solved, one
// contiguous SIMD axpy removes its contribution from the remaining
// rows); transposed solves read row i of op(T) as the contiguous column
// i of T, so each element is one SIMD dot product.
func trsmUnblocked(uplo mat.Uplo, transL bool, t, b *mat.Dense) {
	m, n := t.Rows, b.Cols
	lowerLike := (uplo == mat.Lower) != transL
	if !transL {
		for j := 0; j < n; j++ {
			col := b.Data[j*b.Stride : j*b.Stride+m]
			if lowerLike {
				for p := 0; p < m; p++ {
					tcol := t.Data[p*t.Stride:]
					col[p] /= tcol[p]
					if p+1 < m {
						axpy(col[p+1:], tcol[p+1:m], -col[p])
					}
				}
			} else {
				for p := m - 1; p >= 0; p-- {
					tcol := t.Data[p*t.Stride:]
					col[p] /= tcol[p]
					if p > 0 {
						axpy(col[:p], tcol[:p], -col[p])
					}
				}
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		col := b.Data[j*b.Stride : j*b.Stride+m]
		if lowerLike {
			for i := 0; i < m; i++ {
				ti := t.Data[i*t.Stride:]
				col[i] = (col[i] - dot(ti[:i], col[:i])) / ti[i]
			}
		} else {
			for i := m - 1; i >= 0; i-- {
				ti := t.Data[i*t.Stride:]
				col[i] = (col[i] - dot(ti[i+1:m], col[i+1:m])) / ti[i]
			}
		}
	}
}

// kernelPaths runs f once on the AVX2 kernels (when the CPU has them)
// and once on the portable ones, flipping haveAVX2FMA.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	saved := haveAVX2FMA
	defer func() { haveAVX2FMA = saved }()
	for _, avx := range []bool{true, false} {
		if avx && !saved {
			continue
		}
		haveAVX2FMA = avx
		t.Run(fmt.Sprintf("avx=%v", avx), f)
	}
}

// trsmTriangle returns an m×m triangle with a dominant diagonal, at a
// padded stride, whose unreferenced triangle is NaN: a kernel that
// reads it poisons its result.
func trsmTriangle(m int, uplo mat.Uplo, rng *xrand.Rand) *mat.Dense {
	big := mat.New(m+3, m)
	l := big.View(0, m, 0, m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			v := 2*rng.Float64() - 1
			switch {
			case i == j:
				v = 4 + rng.Float64()
			case (i > j) != (uplo == mat.Lower):
				v = math.NaN()
			}
			l.Set(i, j, v)
		}
	}
	return &l
}

// TestTrsmSmallProperty checks Trsm over every m in 1…80 (single blocks,
// ragged tiles and the blocked driver), a spread of n covering every
// strip remainder, both triangles, both orientations and two alphas. It
// compares with NaiveTrsm within tolerance and with the column-at-a-time
// solve it replaced: bit for bit when untransposed (each element takes
// the same updates in the same order), within tolerance when transposed.
// Both kernel paths run.
func TestTrsmSmallProperty(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := xrand.New(0x75a11)
		for m := 1; m <= 80; m++ {
			for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 80, 1 + m*37%80} {
				for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
					for _, transL := range []bool{false, true} {
						for _, alpha := range []float64{1, -0.5} {
							l := trsmTriangle(m, uplo, rng)
							b0 := mat.NewRandom(m, n, rng)
							got, old, naive := b0.Clone(), b0.Clone(), b0.Clone()
							Trsm(uplo, transL, alpha, l, got)
							trsmOld(uplo, transL, alpha, l, old)
							NaiveTrsm(uplo, transL, alpha, l, naive)
							label := fmt.Sprintf("m=%d n=%d %v trans=%v alpha=%v", m, n, uplo, transL, alpha)
							if d := mat.MaxAbsDiff(got, naive); !(d <= 1e-10) {
								t.Fatalf("%s: diff to naive %g", label, d)
							}
							if transL {
								if d := mat.MaxAbsDiff(got, old); !(d <= 1e-10) {
									t.Fatalf("%s: diff to old kernel %g", label, d)
								}
							} else if !mat.Equal(got, old) {
								t.Fatalf("%s: bits differ from the old kernel", label)
							}
						}
					}
				}
			}
		}
	})
}

// TestTrsmSmallZeroAllocs pins the small-triangle path, packed and in
// place, to zero heap allocations.
func TestTrsmSmallZeroAllocs(t *testing.T) {
	rng := xrand.New(0x75a12)
	for _, m := range []int{32, 48, 63} {
		l := trsmTriangle(m, mat.Lower, rng)
		b := mat.NewRandom(m, m, rng)
		for _, transL := range []bool{false, true} {
			allocs := testing.AllocsPerRun(10, func() {
				Trsm(mat.Lower, transL, 1, l, b)
			})
			if allocs != 0 {
				t.Errorf("m=%d trans=%v: Trsm allocates %v times per call, want 0", m, transL, allocs)
			}
		}
	}
}

// BenchmarkTrsmSmall times the solves the fused compute requests run:
// lower, untransposed and transposed, n = m and n = 8; m²n flops.
func BenchmarkTrsmSmall(b *testing.B) {
	for _, m := range []int{32, 48, 63} {
		for _, n := range []int{m, 8} {
			for _, transL := range []bool{false, true} {
				b.Run(fmt.Sprintf("m%d-n%d-trans=%v", m, n, transL), func(b *testing.B) {
					rng := xrand.New(11)
					l := trsmTriangle(m, mat.Lower, rng)
					b0 := mat.NewRandom(m, n, rng)
					x := b0.Clone()
					for b.Loop() {
						copy(x.Data, b0.Data)
						Trsm(mat.Lower, transL, 1, l, x)
					}
					reportGFLOPs(b, float64(m)*float64(m)*float64(n))
				})
			}
		}
	}
}
