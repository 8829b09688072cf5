package mat

import "lamb/internal/xrand"

// FillRandom fills m with uniform values in [-1, 1) drawn from rng.
// Dense unstructured operands in the paper's experiments are generated
// this way; only sizes, never element values, affect kernel timing.
func (m *Dense) FillRandom(rng *xrand.Rand) {
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
// The Gram product runs eight rows of one column at a time, one
// accumulator per row, so each G element loaded for column j serves
// eight products; a column's last tile is shifted up to end at row n,
// recomputing rows the tile before already set. Every accumulator sums
// its n products in p order, each product rounded before the add (never
// fused), so every element is bit-identical to the element-at-a-time
// dot product.
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
	for j := 0; j < n; j++ {
		if n-j < 8 {
			for i := j; i < n; i++ {
				var acc float64
				for p := 0; p < n*n; p += n {
					acc += float64(g[i+p] * g[j+p])
				}
				set(i, j, acc)
			}
			continue
		}
		for i := j; i < n; i += 8 {
			t := min(i, n-8)
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for p := 0; p < n*n; p += n {
				col := g[p : p+n]
				x := col[j]
				r := col[t : t+8]
				a0 += float64(r[0] * x)
				a1 += float64(r[1] * x)
				a2 += float64(r[2] * x)
				a3 += float64(r[3] * x)
				a4 += float64(r[4] * x)
				a5 += float64(r[5] * x)
				a6 += float64(r[6] * x)
				a7 += float64(r[7] * x)
			}
			set(t, j, a0)
			set(t+1, j, a1)
			set(t+2, j, a2)
			set(t+3, j, a3)
			set(t+4, j, a4)
			set(t+5, j, a5)
			set(t+6, j, a6)
			set(t+7, j, a7)
		}
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
