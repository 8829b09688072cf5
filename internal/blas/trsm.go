package blas

import (
	"fmt"

	"lamb/internal/mat"
)

// Trsm solves the triangular system op(L)·X = alpha·B in place: on
// return B holds X. L is an m×m triangular matrix of which only the uplo
// triangle is referenced (non-unit diagonal), op(L) is L or Lᵀ per
// transL, and B is m×n.
//
// This is the left-side BLAS TRSM used by the least-squares expression's
// Cholesky solve (see lamb/internal/expr): after L := potrf(S), the two
// calls Trsm(Lower, false) and Trsm(Lower, true) apply S⁻¹.
//
// The implementation is blocked over diagonal blocks of order trsmNB:
// each block is solved by the register-blocked small-triangle kernel
// (trsmSmall, the whole solve when m <= trsmNB) and the trailing
// updates are GEMMs, so large solves inherit the packed GEMM's
// performance.
func Trsm(uplo mat.Uplo, transL bool, alpha float64, l, b *mat.Dense) {
	m := l.Rows
	if l.Cols != m {
		panic(fmt.Sprintf("blas: trsm L is %dx%d, want square", l.Rows, l.Cols))
	}
	if b.Rows != m {
		panic(fmt.Sprintf("blas: trsm B has %d rows, want %d", b.Rows, m))
	}
	if m == 0 || b.Cols == 0 {
		return
	}
	if alpha != 1 {
		scaleMatrix(b, alpha)
	}
	// Effective orientation: a Lower matrix accessed transposed behaves
	// like an Upper solve and vice versa.
	if (uplo == mat.Lower) != transL {
		// Forward substitution over block rows.
		for k0 := 0; k0 < m; k0 += trsmNB {
			k1 := min(k0+trsmNB, m)
			lkk := l.View(k0, k1, k0, k1)
			bk := b.View(k0, k1, 0, b.Cols)
			trsmSmall(uplo, transL, &lkk, &bk)
			if k1 < m {
				// Trailing update: B[k1:, :] -= op(L)[k1:, k0:k1] · X_k.
				var lik mat.Dense
				if !transL {
					lik = l.View(k1, m, k0, k1)
				} else {
					lik = l.View(k0, k1, k1, m)
				}
				btail := b.View(k1, m, 0, b.Cols)
				Gemm(transL, false, -1, &lik, &bk, 1, &btail)
			}
		}
		return
	}
	// Backward substitution over block rows.
	for k1 := m; k1 > 0; k1 -= trsmNB {
		k0 := max(k1-trsmNB, 0)
		lkk := l.View(k0, k1, k0, k1)
		bk := b.View(k0, k1, 0, b.Cols)
		trsmSmall(uplo, transL, &lkk, &bk)
		if k0 > 0 {
			var lik mat.Dense
			if !transL {
				lik = l.View(0, k0, k0, k1)
			} else {
				lik = l.View(k0, k1, 0, k0)
			}
			bhead := b.View(0, k0, 0, b.Cols)
			Gemm(transL, false, -1, &lik, &bk, 1, &bhead)
		}
	}
}

// trsmNB is the order of the largest triangle trsmSmall solves: the
// diagonal block size of Trsm.
const trsmNB = 64

// trsmSmall solves op(T)·X = B in place for a triangle of order
// 1 <= m <= trsmNB with the register-blocked strip kernel, four columns
// of B at a time: forward substitution when op(T) is lower triangular,
// backward when it is upper. An untransposed T is solved where it lies;
// a transposed one is first copied to a stack buffer as Tᵀ. Columns
// left over from the strips of four are copied into a zero-padded strip
// buffer.
//
// Each element of X takes one update per solved row, in substitution
// order, then one division: the bits of a column-at-a-time solve with
// op(T). For a transposed T they are not those of a solve that reduces
// each element with a dot product over a row of op(T).
func trsmSmall(uplo mat.Uplo, transL bool, t, b *mat.Dense) {
	forward := (uplo == mat.Lower) != transL
	if transL {
		trsmSmallTrans(uplo, forward, t, b)
		return
	}
	trsmStrips(forward, t.Data, t.Stride, b)
}

// trsmSmallTrans is trsmSmall for a transposed T. The buffer lives in
// its own frame so that untransposed solves do not pay to clear it.
func trsmSmallTrans(uplo mat.Uplo, forward bool, t, b *mat.Dense) {
	var tp [trsmNB * trsmNB]float64
	packTrsmTranspose(tp[:], t, uplo)
	trsmStrips(forward, tp[:], t.Rows, b)
}

// trsmStrips runs the strip kernel over B's columns, four at a time, on
// the triangle at tri (stride ld).
func trsmStrips(forward bool, tri []float64, ld int, b *mat.Dense) {
	m, n := b.Rows, b.Cols
	j := 0
	for ; j+nr <= n; j += nr {
		trsmStrip(forward, tri, ld, b.Data[j*b.Stride:], b.Stride, m)
	}
	if j == n {
		return
	}
	var strip [trsmNB * nr]float64
	for s := j; s < n; s++ {
		copy(strip[(s-j)*m:(s-j+1)*m], b.Data[s*b.Stride:s*b.Stride+m])
	}
	trsmStrip(forward, tri, ld, strip[:], m, m)
	for s := j; s < n; s++ {
		copy(b.Data[s*b.Stride:s*b.Stride+m], strip[(s-j)*m:(s-j+1)*m])
	}
}

// packTrsmTranspose writes P = Tᵀ at stride m for the uplo triangle of
// T, four columns of T (rows of P) at a time, each from its 4×4
// diagonal block on. P's other triangle is not written, apart from
// entries of the 4×4 diagonal blocks, which the kernel never uses.
func packTrsmTranspose(p []float64, t *mat.Dense, uplo mat.Uplo) {
	m, ld := t.Rows, t.Stride
	c := 0
	for ; c+nr <= m; c += nr {
		lo, hi := c, m
		if uplo == mat.Upper {
			lo, hi = 0, c+nr
		}
		packStreams4(p[c+lo*m:], t.Data[lo+c*ld:], hi-lo, ld, m)
	}
	for ; c < m; c++ {
		lo, hi := c, m
		if uplo == mat.Upper {
			lo, hi = 0, c+1
		}
		for i := lo; i < hi; i++ {
			p[c+i*m] = t.Data[i+c*ld]
		}
	}
}

// NaiveTrsm is the reference forward/backward substitution (column by
// column, no blocking). Semantics match Trsm.
func NaiveTrsm(uplo mat.Uplo, transL bool, alpha float64, l, b *mat.Dense) {
	m, n := l.Rows, b.Cols
	at := func(i, j int) float64 {
		if transL {
			return l.At(j, i)
		}
		return l.At(i, j)
	}
	lowerLike := (uplo == mat.Lower) != transL
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			b.Set(i, j, alpha*b.At(i, j))
		}
		if lowerLike {
			for i := 0; i < m; i++ {
				s := b.At(i, j)
				for p := 0; p < i; p++ {
					s -= at(i, p) * b.At(p, j)
				}
				b.Set(i, j, s/at(i, i))
			}
		} else {
			for i := m - 1; i >= 0; i-- {
				s := b.At(i, j)
				for p := i + 1; p < m; p++ {
					s -= at(i, p) * b.At(p, j)
				}
				b.Set(i, j, s/at(i, i))
			}
		}
	}
}
