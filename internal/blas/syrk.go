package blas

import (
	"fmt"

	"lamb/internal/mat"
	"lamb/internal/par"
)

// syrkBlock is the block size for the SYRK and SYMM drivers.
const syrkBlock = 96

// syrkScratches keeps the per-block scratch squares of the SYRK and
// SYMM drivers so parallel block tasks neither share state nor allocate.
var syrkScratches = newFreeList(func() *mat.Dense { return mat.New(syrkBlock, syrkBlock) })

// Syrk computes the uplo triangle of C := alpha·A·Aᵀ + beta·C, with A
// m×k and C m×m. Only the selected triangle of C is referenced and
// written; the opposite strict triangle is left untouched, exactly like
// the BLAS kernel. It panics on mismatched dimensions.
//
// The implementation processes C by blocks: off-diagonal blocks are plain
// GEMMs on row slices of A (with a transposed right-hand side), while
// diagonal blocks are computed into a scratch square and only the
// triangle merged. The blocks are mutually independent, so large updates
// fan them out over goroutines (each block task runs the serial GEMM to
// avoid nested parallelism). The diagonal overhead is why a measured SYRK
// ramps up more slowly than GEMM at small m — one of the
// kernel-efficiency gaps the paper identifies.
func Syrk(uplo mat.Uplo, alpha float64, a *mat.Dense, beta float64, c *mat.Dense) {
	syrkDriver(uplo, false, alpha, a, beta, c)
}

// SyrkT computes the uplo triangle of C := alpha·Aᵀ·A + beta·C, with A
// k×m and C m×m — the transposed-Gram variant (BLAS dsyrk with
// trans='T'). It shares the blocked driver with Syrk: the only
// difference is that block operands are column slices of A multiplied
// with a transposed left-hand side.
func SyrkT(uplo mat.Uplo, alpha float64, a *mat.Dense, beta float64, c *mat.Dense) {
	syrkDriver(uplo, true, alpha, a, beta, c)
}

// syrkDriver is the shared blocked implementation: trans selects
// C := Aᵀ·A (A k×m) instead of C := A·Aᵀ (A m×k).
func syrkDriver(uplo mat.Uplo, trans bool, alpha float64, a *mat.Dense, beta float64, c *mat.Dense) {
	m, k := a.Rows, a.Cols
	if trans {
		m, k = a.Cols, a.Rows
	}
	if c.Rows != m || c.Cols != m {
		panic(fmt.Sprintf("blas: syrk output %dx%d, want %dx%d", c.Rows, c.Cols, m, m))
	}
	if m == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		scaleTriangle(c, uplo, beta)
		return
	}
	nw := workers()
	parallel := nw > 1 && m > syrkBlock && float64(m)*float64(m)*float64(k) >= parThreshold
	if !parallel {
		// Serial sweep: blocks are enumerated inline (no task list, no
		// closure, all views on the stack) so a steady-state call
		// performs zero heap allocations.
		scratch := syrkScratches.get()
		for j0 := 0; j0 < m; j0 += syrkBlock {
			j1 := min(j0+syrkBlock, m)
			syrkBlockTask(uplo, trans, alpha, a, beta, c, triBlock{j0, j1, j0, j1}, scratch, false)
			if uplo == mat.Lower {
				for i0 := j1; i0 < m; i0 += syrkBlock {
					syrkBlockTask(uplo, trans, alpha, a, beta, c, triBlock{i0, min(i0+syrkBlock, m), j0, j1}, scratch, false)
				}
			} else {
				for i0 := 0; i0 < j0; i0 += syrkBlock {
					syrkBlockTask(uplo, trans, alpha, a, beta, c, triBlock{i0, min(i0+syrkBlock, j0), j0, j1}, scratch, false)
				}
			}
		}
		syrkScratches.put(scratch)
		return
	}
	tasks := triBlockTasks(m, uplo)
	// The closure captures copies of the operand headers so Syrk's own
	// parameters don't leak (see gemmParallel).
	av, cv := *a, *c
	ap, cp := &av, &cv
	par.For(len(tasks), nw, func(t int) {
		scratch := syrkScratches.get()
		syrkBlockTask(uplo, trans, alpha, ap, beta, cp, tasks[t], scratch, true)
		syrkScratches.put(scratch)
	})
}

// syrkBlockTask computes one triangular block of the SYRK update:
// off-diagonal blocks are plain GEMMs on row views of A (transposed
// right-hand side) — column views with a transposed left-hand side in
// the trans case — while diagonal blocks go through the scratch square
// with a triangle merge. With serialGemm set the block runs the serial
// GEMM driver (parallel callers avoid nested parallelism); otherwise
// Gemm may parallelise internally (e.g. a single big diagonal block).
func syrkBlockTask(uplo mat.Uplo, trans bool, alpha float64, a *mat.Dense, beta float64, c *mat.Dense, blk triBlock, scratch *mat.Dense, serialGemm bool) {
	k := a.Cols
	if trans {
		k = a.Rows
	}
	var aj mat.Dense
	if trans {
		aj = a.View(0, k, blk.j0, blk.j1)
	} else {
		aj = a.View(blk.j0, blk.j1, 0, k)
	}
	if blk.diag() {
		sb := scratch.View(0, blk.j1-blk.j0, 0, blk.j1-blk.j0)
		if serialGemm {
			gemmSerial(trans, !trans, alpha, &aj, &aj, 0, &sb)
		} else {
			Gemm(trans, !trans, alpha, &aj, &aj, 0, &sb)
		}
		mergeTriangle(c, &sb, blk.j0, uplo, beta)
		return
	}
	var ai mat.Dense
	if trans {
		ai = a.View(0, k, blk.i0, blk.i1)
	} else {
		ai = a.View(blk.i0, blk.i1, 0, k)
	}
	cb := c.View(blk.i0, blk.i1, blk.j0, blk.j1)
	if serialGemm {
		gemmSerial(trans, !trans, alpha, &ai, &aj, beta, &cb)
	} else {
		Gemm(trans, !trans, alpha, &ai, &aj, beta, &cb)
	}
}

// triBlock is one syrkBlock×syrkBlock tile of a triangular update:
// rows [i0, i1) by columns [j0, j1).
type triBlock struct{ i0, i1, j0, j1 int }

func (b triBlock) diag() bool { return b.i0 == b.j0 }

// triBlockTasks enumerates the blocks of the uplo triangle of an m×m
// matrix: the diagonal block of each column panel plus its off-diagonal
// blocks. All blocks are disjoint, so they can be processed in parallel.
func triBlockTasks(m int, uplo mat.Uplo) []triBlock {
	var tasks []triBlock
	for j0 := 0; j0 < m; j0 += syrkBlock {
		j1 := min(j0+syrkBlock, m)
		tasks = append(tasks, triBlock{j0, j1, j0, j1})
		if uplo == mat.Lower {
			for i0 := j1; i0 < m; i0 += syrkBlock {
				tasks = append(tasks, triBlock{i0, min(i0+syrkBlock, m), j0, j1})
			}
		} else {
			for i0 := 0; i0 < j0; i0 += syrkBlock {
				tasks = append(tasks, triBlock{i0, min(i0+syrkBlock, j0), j0, j1})
			}
		}
	}
	return tasks
}

// mergeTriangle merges the uplo triangle of the nb×nb block sb into
// C[j0:j0+nb, j0:j0+nb] as C := beta·C + sb (sb already carries alpha).
func mergeTriangle(c, sb *mat.Dense, j0 int, uplo mat.Uplo, beta float64) {
	nb := sb.Rows
	for j := 0; j < nb; j++ {
		var lo, hi int
		if uplo == mat.Lower {
			lo, hi = j, nb
		} else {
			lo, hi = 0, j+1
		}
		ccol := c.Data[(j0+j)*c.Stride:]
		scol := sb.Data[j*sb.Stride:]
		if beta == 0 {
			for i := lo; i < hi; i++ {
				ccol[j0+i] = scol[i]
			}
		} else {
			for i := lo; i < hi; i++ {
				ccol[j0+i] = beta*ccol[j0+i] + scol[i]
			}
		}
	}
}

// scaleTriangle applies C := beta·C to the uplo triangle only.
func scaleTriangle(c *mat.Dense, uplo mat.Uplo, beta float64) {
	if beta == 1 {
		return
	}
	n := c.Rows
	for j := 0; j < n; j++ {
		var lo, hi int
		if uplo == mat.Lower {
			lo, hi = j, n
		} else {
			lo, hi = 0, j+1
		}
		col := c.Data[j*c.Stride:]
		if beta == 0 {
			for i := lo; i < hi; i++ {
				col[i] = 0
			}
		} else {
			for i := lo; i < hi; i++ {
				col[i] *= beta
			}
		}
	}
}

// Tri2Full mirrors the uplo triangle of the square matrix c onto the
// opposite triangle. It is the data-movement step between SYRK and GEMM
// in the paper's AAᵀB Algorithm 2.
func Tri2Full(uplo mat.Uplo, c *mat.Dense) {
	mat.MirrorTriangle(c, uplo)
}
