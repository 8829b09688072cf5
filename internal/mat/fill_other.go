//go:build !amd64

package mat

// gram8x4 computes one 8×4 tile of the Gram product G·Gᵀ with the
// portable loop.
func gram8x4(g []float64, n, r, c int, tile *[32]float64) {
	gram8x4Generic(g, n, r, c, tile)
}
