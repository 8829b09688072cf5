package mat

// gram8x4AVX computes tile[q+8·s] = Σ_p g[r+q, p]·g[c+s, p] over the n
// columns of the n×n column-major matrix at gp, in p order, with VMULPD
// then VADDPD (never FMA). Implemented in fill_amd64.s.
//
//go:noescape
func gram8x4AVX(gp *float64, n, r, c int, tile *[32]float64)

// gram8x4 computes one 8×4 tile of the Gram product G·Gᵀ; see
// gram8x4Generic.
func gram8x4(g []float64, n, r, c int, tile *[32]float64) {
	if haveAVX2FMA {
		gram8x4AVX(&g[0], n, r, c, tile)
		return
	}
	gram8x4Generic(g, n, r, c, tile)
}
