package mat

import (
	"lamb/internal/cpu"
	"lamb/internal/xrand"
)

// haveAVX2FMA gates the assembly Gram tile (read once at startup from
// lamb/internal/cpu); tests flip it to run the portable tile.
var haveAVX2FMA = cpu.HasAVX2FMA

// FillRandom fills m with uniform values in [-1, 1) drawn from rng, in
// column-major order. Dense unstructured operands in the paper's
// experiments are generated this way; only sizes, never element values,
// affect kernel timing. A contiguous matrix (every plan operand is one)
// is filled by one FillSigned call over all its elements, a view by one
// call per column; both draw the same stream.
func (m *Dense) FillRandom(rng *xrand.Rand) {
	if m.Stride == m.Rows {
		rng.FillSigned(m.Data[:m.Rows*m.Cols])
		return
	}
	for j := 0; j < m.Cols; j++ {
		rng.FillSigned(m.Data[j*m.Stride : j*m.Stride+m.Rows])
	}
}

// NewRandom returns a new r-by-c matrix filled with uniform values in
// [-1, 1) drawn from rng.
func NewRandom(r, c int, rng *xrand.Rand) *Dense {
	m := New(r, c)
	m.FillRandom(rng)
	return m
}

// NewSPDRandom returns a new well-conditioned random symmetric positive
// definite n-by-n matrix (G·Gᵀ/n + I with G random), suitable as input
// to a Cholesky factorisation.
func NewSPDRandom(n int, rng *xrand.Rand) *Dense {
	s := New(n, n)
	s.FillSPD(make([]float64, n*n), rng)
	return s
}

// FillSPD fills the square matrix m in place with a well-conditioned
// random symmetric positive definite matrix (G·Gᵀ/n + I with G random).
// scratch holds G during the fill and must have at least Rows·Rows
// elements; passing a reusable buffer makes repeated fills allocation-
// free (the execution-plan executor refills SPD inputs this way on
// every repetition).
//
// The Gram product runs in 8×4 tiles of the lower triangle (gram8x4:
// AVX multiplies and adds on amd64, a portable loop elsewhere), so each
// G element loaded serves four or eight products. Tiles at the bottom
// and right edges are shifted to end at row and column n, recomputing
// elements a neighbouring tile already set, and a tile's elements above
// the diagonal set their mirror images. Every element sums its n
// products in p order, each product rounded before the add (never
// fused), so every element is bit-identical to the element-at-a-time
// dot product, whichever tile computes it.
func (m *Dense) FillSPD(scratch []float64, rng *xrand.Rand) {
	n := m.Rows
	if m.Cols != n {
		panic("mat: FillSPD of non-square matrix")
	}
	if len(scratch) < n*n {
		panic("mat: FillSPD scratch too short")
	}
	g := scratch[:n*n]
	rng.FillSigned(g)
	inv := 1 / float64(n)
	set := func(i, j int, acc float64) {
		v := acc * inv
		if i == j {
			v++
		}
		m.Data[i+j*m.Stride] = v
		m.Data[j+i*m.Stride] = v
	}
	if n < 8 {
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				var acc float64
				for p := 0; p < n*n; p += n {
					acc += float64(g[i+p] * g[j+p])
				}
				set(i, j, acc)
			}
		}
		return
	}
	var tile [32]float64
	for j := 0; j < n; j += 4 {
		c := min(j, n-4)
		for i := c; i < n; i += 8 {
			r := min(i, n-8)
			gram8x4(g, n, r, c, &tile)
			for s := 0; s < 4; s++ {
				for q := 0; q < 8; q++ {
					set(r+q, c+s, tile[q+8*s])
				}
			}
		}
	}
}

// gram8x4Generic is the portable gram8x4: tile[q+8·s] = Σ_p
// g[r+q, p]·g[c+s, p] over the n columns p of the n×n matrix g, in p
// order, each product rounded before the add. One column of the tile
// at a time keeps its eight accumulators in registers.
func gram8x4Generic(g []float64, n, r, c int, tile *[32]float64) {
	for s := 0; s < 4; s++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for p := 0; p < n*n; p += n {
			col := g[p : p+n]
			x := col[c+s]
			rr := col[r : r+8]
			a0 += float64(rr[0] * x)
			a1 += float64(rr[1] * x)
			a2 += float64(rr[2] * x)
			a3 += float64(rr[3] * x)
			a4 += float64(rr[4] * x)
			a5 += float64(rr[5] * x)
			a6 += float64(rr[6] * x)
			a7 += float64(rr[7] * x)
		}
		tile[8*s], tile[8*s+1], tile[8*s+2], tile[8*s+3] = a0, a1, a2, a3
		tile[8*s+4], tile[8*s+5], tile[8*s+6], tile[8*s+7] = a4, a5, a6, a7
	}
}

// NewSymmetricRandom returns a new random symmetric n-by-n matrix.
func NewSymmetricRandom(n int, rng *xrand.Rand) *Dense {
	m := New(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := 2*rng.Float64() - 1
			m.Data[i+j*m.Stride] = v
			m.Data[j+i*m.Stride] = v
		}
	}
	return m
}
