package blas

// This file holds the portable implementations of the small SIMD
// primitives shared by the packing routines and the triangular kernels:
// contiguous axpy and dot, the small-triangle strip solve, the fused
// rank-4 column update of the unblocked Cholesky, and the four
// full-panel packing kernels. On amd64 with AVX2+FMA the dispatch
// wrappers (simd_amd64.go) route to hand-written assembly; everywhere
// else these generic bodies run.

// axpyGeneric computes y[i] += alpha·x[i] over len(x) elements.
func axpyGeneric(y, x []float64, alpha float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// dotGeneric returns Σ x[i]·y[i] over len(x) elements.
func dotGeneric(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// trsmStripGeneric solves T·X = X in place for four columns of x
// (stride ldx), T the m×m triangle at t (stride ldt): forward
// substitution for a lower T, backward for an upper one. Each element
// takes its updates in substitution order, every product rounded before
// the subtraction, then one division: the order of trsmFwd4AVX and
// trsmBwd4AVX, whose FMAs round once.
func trsmStripGeneric(forward bool, t []float64, ldt int, x []float64, ldx, m int) {
	for s := 0; s < nr; s++ {
		col := x[s*ldx : s*ldx+m]
		if forward {
			for p := 0; p < m; p++ {
				tcol := t[p*ldt : p*ldt+m]
				xp := col[p] / tcol[p]
				col[p] = xp
				for i := p + 1; i < m; i++ {
					col[i] -= xp * tcol[i]
				}
			}
			continue
		}
		for p := m - 1; p >= 0; p-- {
			tcol := t[p*ldt : p*ldt+p+1]
			xp := col[p] / tcol[p]
			col[p] = xp
			for i := 0; i < p; i++ {
				col[i] -= xp * tcol[i]
			}
		}
	}
}

// rank4Generic applies a fused rank-4 update to y: with x holding four
// columns at the given stride (column t starts at x[t·stride]),
// y[i] += Σ_t alphas[t]·x[t·stride+i] over len(y) elements.
func rank4Generic(y, x []float64, stride int, alphas *[4]float64) {
	x0, x1, x2, x3 := x, x[stride:], x[2*stride:], x[3*stride:]
	a0, a1, a2, a3 := alphas[0], alphas[1], alphas[2], alphas[3]
	for i := range y {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// The full-panel packing kernels. Ragged edge panels stay on the scalar
// paths in pack.go; these cover the dominant full-height (mr) and
// full-width (nr) panels:
//
//	packPanelA8:  dst[p·8+r] = src[p·stride+r]   (contiguous 8-copy per p)
//	packPanelA8T: dst[p·8+r] = src[r·stride+p]   (8 strided streams interleaved)
//	packPanelB4:  dst[p·4+s] = src[s·stride+p]   (4 strided streams interleaved)
//	packPanelB4T: dst[p·4+s] = src[p·stride+s]   (contiguous 4-copy per p)

func packPanelA8Generic(dst, src []float64, k, stride int) {
	for p := 0; p < k; p++ {
		copy(dst[p*mr:p*mr+mr], src[p*stride:p*stride+mr])
	}
}

func packPanelA8TGeneric(dst, src []float64, k, stride int) {
	for p := 0; p < k; p++ {
		d := dst[p*mr : p*mr+mr : p*mr+mr]
		for r := 0; r < mr; r++ {
			d[r] = src[p+r*stride]
		}
	}
}

// packStreams4Generic interleaves four strided streams:
// dst[p·dstStride+s] = src[s·stride+p]. packPanelB4 is its dstStride = 4
// case; packTrsmTranspose transposes triangles with it.
func packStreams4Generic(dst, src []float64, k, stride, dstStride int) {
	for p := 0; p < k; p++ {
		d := dst[p*dstStride : p*dstStride+nr : p*dstStride+nr]
		d[0] = src[p]
		d[1] = src[p+stride]
		d[2] = src[p+2*stride]
		d[3] = src[p+3*stride]
	}
}

func packPanelB4Generic(dst, src []float64, k, stride int) {
	packStreams4Generic(dst, src, k, stride, nr)
}

func packPanelB4TGeneric(dst, src []float64, k, stride int) {
	for p := 0; p < k; p++ {
		copy(dst[p*nr:p*nr+nr], src[p*stride:p*stride+nr])
	}
}
