package blas

import (
	"fmt"

	"lamb/internal/mat"
	"lamb/internal/par"
)

// Symm computes C := alpha·A·B + beta·C where A is m×m symmetric with
// only the uplo triangle stored (the strict opposite triangle of A is
// never referenced), B is m×n, and C is m×n. This is the left-side,
// lower/upper SYMM used by the paper's AAᵀB Algorithms 1 and 3.
//
// The implementation walks A in square blocks; each block is materialised
// into a scratch square — copied directly, transposed, or symmetrised
// depending on its position relative to the diagonal — and multiplied
// with the corresponding row block of B using the packed GEMM machinery.
// Row panels of C are mutually independent, so large products fan them
// out over goroutines (each panel task runs the serial GEMM with pooled
// scratch to avoid nested parallelism). The per-block materialisation
// gives SYMM a lower efficiency plateau than GEMM, matching the
// kernel-efficiency ordering in the paper's Figure 1.
func Symm(uplo mat.Uplo, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	m := a.Rows
	if a.Cols != m {
		panic(fmt.Sprintf("blas: symm A is %dx%d, want square", a.Rows, a.Cols))
	}
	if b.Rows != m {
		panic(fmt.Sprintf("blas: symm B has %d rows, want %d", b.Rows, m))
	}
	n := b.Cols
	if c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: symm output %dx%d, want %dx%d", c.Rows, c.Cols, m, n))
	}
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		scaleMatrix(c, beta)
		return
	}
	npanels := (m + syrkBlock - 1) / syrkBlock
	nw := workers()
	parallel := nw > 1 && npanels > 1 && float64(m)*float64(m)*float64(n) >= parThreshold
	if !parallel {
		// Serial sweep: panels run inline (no closure, stack views) so a
		// steady-state call performs zero heap allocations.
		scratch := syrkScratches.get()
		for i0 := 0; i0 < m; i0 += syrkBlock {
			symmPanelTask(uplo, alpha, a, b, beta, c, i0, scratch, false)
		}
		syrkScratches.put(scratch)
		return
	}
	// The closure captures copies of the operand headers so Symm's own
	// parameters don't leak (see gemmParallel).
	av, bv, cv := *a, *b, *c
	ap, bp, cp := &av, &bv, &cv
	par.For(npanels, nw, func(t int) {
		scratch := syrkScratches.get()
		symmPanelTask(uplo, alpha, ap, bp, beta, cp, t*syrkBlock, scratch, true)
		syrkScratches.put(scratch)
	})
}

// symmPanelTask computes one row panel C[i0:i1, :] of the SYMM product:
// each square block of A is materialised into scratch and multiplied
// with the matching row block of B. With serialGemm set the panel runs
// the serial GEMM driver (parallel callers avoid nested parallelism).
func symmPanelTask(uplo mat.Uplo, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense, i0 int, scratch *mat.Dense, serialGemm bool) {
	m, n := a.Rows, b.Cols
	i1 := min(i0+syrkBlock, m)
	cb := c.View(i0, i1, 0, n)
	for k0 := 0; k0 < m; k0 += syrkBlock {
		k1 := min(k0+syrkBlock, m)
		ab := scratch.View(0, i1-i0, 0, k1-k0)
		materialiseSymBlock(&ab, a, uplo, i0, i1, k0, k1)
		bb := b.View(k0, k1, 0, n)
		betaEff := 1.0
		if k0 == 0 {
			betaEff = beta
		}
		if serialGemm {
			gemmSerial(false, false, alpha, &ab, &bb, betaEff, &cb)
		} else {
			Gemm(false, false, alpha, &ab, &bb, betaEff, &cb)
		}
	}
}

// materialiseSymBlock copies the logical symmetric block A[i0:i1, k0:k1]
// into the pre-carved scratch view out, resolving which stored triangle
// to read.
func materialiseSymBlock(out, a *mat.Dense, uplo mat.Uplo, i0, i1, k0, k1 int) {
	rows, cols := i1-i0, k1-k0
	storedDirect := (uplo == mat.Lower && i0 >= k1) || (uplo == mat.Upper && k0 >= i1)
	storedTransposed := (uplo == mat.Lower && k0 >= i1) || (uplo == mat.Upper && i0 >= k1)
	switch {
	case storedDirect:
		// Entire block lies in the stored triangle.
		src := a.View(i0, i1, k0, k1)
		mat.Copy(out, &src)
	case storedTransposed:
		// Entire block lies in the unstored triangle: read the mirror.
		src := a.View(k0, k1, i0, i1)
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				out.Data[i+j*out.Stride] = src.Data[j+i*src.Stride]
			}
		}
	default:
		// Diagonal block (i0 == k0): symmetrise element-wise from the
		// stored triangle.
		for j := 0; j < cols; j++ {
			gj := k0 + j
			for i := 0; i < rows; i++ {
				gi := i0 + i
				var v float64
				if (uplo == mat.Lower && gi >= gj) || (uplo == mat.Upper && gi <= gj) {
					v = a.Data[gi+gj*a.Stride]
				} else {
					v = a.Data[gj+gi*a.Stride]
				}
				out.Data[i+j*out.Stride] = v
			}
		}
	}
}
