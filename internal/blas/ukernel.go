package blas

import "lamb/internal/cpu"

// haveAVX2FMA gates the assembly kernels (read once at startup from
// lamb/internal/cpu). Off amd64 it is always false; tests flip it to run
// the portable kernels on an AVX2 host.
var haveAVX2FMA = cpu.HasAVX2FMA

// microKernel8x4Generic is the portable register-blocked 8×4 micro-kernel:
// out[r+8·s] = Σ_p ap[p·8+r] · bp[p·4+s]. The accumulators are split into
// two banks of four rows sharing each broadcast b value, which keeps the
// independent multiply-add chains visible to the scheduler (ILP) and
// mirrors the two-vector-register banks of the amd64 assembly kernel. The
// three-index subslices pin the panel lengths so the compiler drops the
// per-element bounds checks.
func microKernel8x4Generic(ap, bp []float64, kcb int, out *[mr * nr]float64) {
	var c00, c10, c20, c30, c40, c50, c60, c70 float64
	var c01, c11, c21, c31, c41, c51, c61, c71 float64
	var c02, c12, c22, c32, c42, c52, c62, c72 float64
	var c03, c13, c23, c33, c43, c53, c63, c73 float64
	for p := 0; p < kcb; p++ {
		aa := ap[p*mr : p*mr+mr : p*mr+mr]
		bb := bp[p*nr : p*nr+nr : p*nr+nr]
		a0, a1, a2, a3 := aa[0], aa[1], aa[2], aa[3]
		a4, a5, a6, a7 := aa[4], aa[5], aa[6], aa[7]
		b0, b1, b2, b3 := bb[0], bb[1], bb[2], bb[3]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c40 += a4 * b0
		c50 += a5 * b0
		c60 += a6 * b0
		c70 += a7 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		c41 += a4 * b1
		c51 += a5 * b1
		c61 += a6 * b1
		c71 += a7 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		c42 += a4 * b2
		c52 += a5 * b2
		c62 += a6 * b2
		c72 += a7 * b2
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
		c43 += a4 * b3
		c53 += a5 * b3
		c63 += a6 * b3
		c73 += a7 * b3
	}
	out[0], out[1], out[2], out[3] = c00, c10, c20, c30
	out[4], out[5], out[6], out[7] = c40, c50, c60, c70
	out[8], out[9], out[10], out[11] = c01, c11, c21, c31
	out[12], out[13], out[14], out[15] = c41, c51, c61, c71
	out[16], out[17], out[18], out[19] = c02, c12, c22, c32
	out[20], out[21], out[22], out[23] = c42, c52, c62, c72
	out[24], out[25], out[26], out[27] = c03, c13, c23, c33
	out[28], out[29], out[30], out[31] = c43, c53, c63, c73
}
