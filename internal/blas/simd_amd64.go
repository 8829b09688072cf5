package blas

import "lamb/internal/mat"

// AVX2+FMA dispatch for the SIMD primitives, following the same
// runtime-detect pattern as the GEMM micro-kernel (haveAVX2FMA is set
// once at startup in ukernel.go). Every assembly routine handles
// arbitrary lengths including scalar tails; the wrappers only guard the
// empty case so the pointer derefs stay in bounds.

// axpyAVX computes y[i] += alpha·x[i] for i in [0, n).
// Implemented in simd_amd64.s.
//
//go:noescape
func axpyAVX(y, x *float64, n int, alpha float64)

// dotAVX returns Σ x[i]·y[i] for i in [0, n).
// Implemented in simd_amd64.s.
//
//go:noescape
func dotAVX(x, y *float64, n int) float64

// rank4AVX computes y[i] += Σ_t alphas[t]·x[t·stride+i] for i in [0, n).
// Implemented in simd_amd64.s.
//
//go:noescape
func rank4AVX(y, x *float64, stride, n int, alphas *[4]float64)

// mergeTileSet8x4AVX writes C[r,s] = alpha·tile[s·8+r] for a full 8×4
// micro-tile (C column-major at stride). Implemented in simd_amd64.s.
//
//go:noescape
func mergeTileSet8x4AVX(c *float64, stride int, tile *[mr * nr]float64, alpha float64)

// mergeTileAdd8x4AVX accumulates C[r,s] += alpha·tile[s·8+r] for a full
// 8×4 micro-tile. Implemented in simd_amd64.s.
//
//go:noescape
func mergeTileAdd8x4AVX(c *float64, stride int, tile *[mr * nr]float64, alpha float64)

// mergeTileFull folds a full 8×4 tile into C for betaEff 0 or 1,
// returning false when the caller must take the scalar path (ragged
// tile, general beta, or no AVX2).
func mergeTileFull(tile *[mr * nr]float64, rowsA, colsB int, alpha, betaEff float64, c *mat.Dense, i0, j0 int) bool {
	if !haveAVX2FMA || rowsA != mr || colsB != nr {
		return false
	}
	base := &c.Data[i0+j0*c.Stride]
	switch betaEff {
	case 0:
		mergeTileSet8x4AVX(base, c.Stride, tile, alpha)
	case 1:
		mergeTileAdd8x4AVX(base, c.Stride, tile, alpha)
	default:
		return false
	}
	return true
}

// packContig8AVX copies k runs of 8 contiguous doubles, src advancing by
// stride and dst by 8 per run. Implemented in simd_amd64.s.
//
//go:noescape
func packContig8AVX(dst, src *float64, k, stride int)

// packContig4AVX copies k runs of 4 contiguous doubles, src advancing by
// stride and dst by 4 per run. Implemented in simd_amd64.s.
//
//go:noescape
func packContig4AVX(dst, src *float64, k, stride int)

// packStreams4AVX interleaves four strided source streams (stream s
// starts at src[s·stride]) into dst: dst[p·dstStride+s] = src[s·stride+p]
// for p in [0, k), s in [0, 4), transposing 4×4 blocks in registers.
// Implemented in simd_amd64.s.
//
//go:noescape
func packStreams4AVX(dst, src *float64, k, stride, dstStride int)

// trsmFwd4AVX solves L·X = X in place by forward substitution for four
// columns of X (stride ldx): L is the m×m lower triangle at t (stride
// ldt), m >= 1. Implemented in simd_amd64.s.
//
//go:noescape
func trsmFwd4AVX(t *float64, ldt int, x *float64, ldx, m int)

// trsmBwd4AVX solves U·X = X in place by backward substitution for four
// columns of X: U is the m×m upper triangle at t. Implemented in
// simd_amd64.s.
//
//go:noescape
func trsmBwd4AVX(t *float64, ldt int, x *float64, ldx, m int)

// trsmStrip solves T·X = X in place for four columns of X, forward for
// a lower triangle T and backward for an upper one.
func trsmStrip(forward bool, t []float64, ldt int, x []float64, ldx, m int) {
	switch {
	case !haveAVX2FMA:
		trsmStripGeneric(forward, t, ldt, x, ldx, m)
	case forward:
		trsmFwd4AVX(&t[0], ldt, &x[0], ldx, m)
	default:
		trsmBwd4AVX(&t[0], ldt, &x[0], ldx, m)
	}
}

// axpy computes y[i] += alpha·x[i] over len(x) elements.
func axpy(y, x []float64, alpha float64) {
	if haveAVX2FMA && len(x) > 0 {
		axpyAVX(&y[0], &x[0], len(x), alpha)
		return
	}
	axpyGeneric(y, x, alpha)
}

// dot returns Σ x[i]·y[i] over len(x) elements.
func dot(x, y []float64) float64 {
	if haveAVX2FMA && len(x) > 0 {
		return dotAVX(&x[0], &y[0], len(x))
	}
	return dotGeneric(x, y)
}

// rank4 applies the fused rank-4 update y[i] += Σ_t alphas[t]·x[t·stride+i]
// over len(y) elements.
func rank4(y, x []float64, stride int, alphas *[4]float64) {
	if haveAVX2FMA && len(y) > 0 {
		rank4AVX(&y[0], &x[0], stride, len(y), alphas)
		return
	}
	rank4Generic(y, x, stride, alphas)
}

func packPanelA8(dst, src []float64, k, stride int) {
	if haveAVX2FMA && k > 0 {
		packContig8AVX(&dst[0], &src[0], k, stride)
		return
	}
	packPanelA8Generic(dst, src, k, stride)
}

func packPanelA8T(dst, src []float64, k, stride int) {
	if haveAVX2FMA && k > 0 {
		// Two interleaved half-panels: rows 0–3 and rows 4–7 of the
		// packed micro-panel, each a 4-stream transpose.
		packStreams4AVX(&dst[0], &src[0], k, stride, mr)
		packStreams4AVX(&dst[4], &src[4*stride], k, stride, mr)
		return
	}
	packPanelA8TGeneric(dst, src, k, stride)
}

// packStreams4 interleaves four strided streams:
// dst[p·dstStride+s] = src[s·stride+p] for p in [0, k), s in [0, 4).
func packStreams4(dst, src []float64, k, stride, dstStride int) {
	if haveAVX2FMA && k > 0 {
		packStreams4AVX(&dst[0], &src[0], k, stride, dstStride)
		return
	}
	packStreams4Generic(dst, src, k, stride, dstStride)
}

func packPanelB4(dst, src []float64, k, stride int) {
	packStreams4(dst, src, k, stride, nr)
}

func packPanelB4T(dst, src []float64, k, stride int) {
	if haveAVX2FMA && k > 0 {
		packContig4AVX(&dst[0], &src[0], k, stride)
		return
	}
	packPanelB4TGeneric(dst, src, k, stride)
}
