//go:build !amd64

package blas

import "lamb/internal/mat"

// Non-amd64 platforms always use the portable SIMD-primitive bodies (on
// arm64 and ppc64 the compiler fuses their multiply-adds into native FMA
// instructions).

// mergeTileFull has no vector fast path off amd64; the scalar merge in
// pack.go always runs.
func mergeTileFull(tile *[mr * nr]float64, rowsA, colsB int, alpha, betaEff float64, c *mat.Dense, i0, j0 int) bool {
	return false
}

func axpy(y, x []float64, alpha float64) { axpyGeneric(y, x, alpha) }

func trsmStrip(forward bool, t []float64, ldt int, x []float64, ldx, m int) {
	trsmStripGeneric(forward, t, ldt, x, ldx, m)
}

func packStreams4(dst, src []float64, k, stride, dstStride int) {
	packStreams4Generic(dst, src, k, stride, dstStride)
}

func dot(x, y []float64) float64 { return dotGeneric(x, y) }

func rank4(y, x []float64, stride int, alphas *[4]float64) {
	rank4Generic(y, x, stride, alphas)
}

func packPanelA8(dst, src []float64, k, stride int) { packPanelA8Generic(dst, src, k, stride) }

func packPanelA8T(dst, src []float64, k, stride int) { packPanelA8TGeneric(dst, src, k, stride) }

func packPanelB4(dst, src []float64, k, stride int) { packPanelB4Generic(dst, src, k, stride) }

func packPanelB4T(dst, src []float64, k, stride int) { packPanelB4TGeneric(dst, src, k, stride) }
