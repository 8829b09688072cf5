package blas

// gemm8x4AVX computes the full 8×4 packed micro-tile product
// out[r+8·s] = Σ_p ap[p·8+r] · bp[p·4+s] with AVX2 FMA instructions.
// Implemented in ukernel_amd64.s.
//
//go:noescape
func gemm8x4AVX(ap, bp *float64, k int, out *[mr * nr]float64)

// microKernel8x4 computes one packed 8×4 micro-tile into out, using the
// vectorized kernel when the CPU supports it.
func microKernel8x4(ap, bp []float64, kcb int, out *[mr * nr]float64) {
	if haveAVX2FMA {
		gemm8x4AVX(&ap[0], &bp[0], kcb, out)
		return
	}
	microKernel8x4Generic(ap, bp, kcb, out)
}
