package blas

// Batched kernel drivers for the small-instance regime: N same-shape
// problems laid out in one slab at a fixed stride, executed through one
// driver entry instead of N independent calls. Small dense problems are
// dominated by fixed costs — packing-buffer round-trips, argument
// validation, blocked-driver loop setup — rather than FLOPs, so the
// batched drivers hoist those costs out of the per-instance loop: one
// buffer set serves the whole batch, shared packed panels are
// laid out back to back, and micro-kernel sweeps interleave across
// instances while the panels are cache-hot (batmat's batched-linear-
// algebra design).
//
// Every batched driver computes bitwise-identical results to calling its
// per-instance kernel N times: the fused paths reuse the exact tile
// decompositions (packA/packB/macroKernel, potf2, trsmSmall, the
// SYRK/SYMM scratch-block merges) the sequential drivers use at the same
// sizes, and sizes outside the fused regime fall back to the sequential
// drivers instance by instance.
//
// Each fused path is one job whose range function sweeps a contiguous
// range of instances with one buffer set (batchpar.go). The job runs as
// one part on the calling goroutine, or, on multi-worker hosts (see
// SetMaxWorkers), as several parts in parallel. Instances are
// independent and each is processed by exactly one goroutine running
// the same code on the same data, so the bitwise-identity guarantee
// holds at any worker count.
//
// The slab contract: an operand is passed as its instance-0 header plus
// an instance stride in float64s; instance i's data starts at
// Data[i·stride]. Headers must satisfy Stride >= Rows as usual, and the
// backing slice must extend through the last instance.

import (
	"fmt"

	"lamb/internal/mat"
)

// instView returns the i-th instance's header: the base header with its
// data advanced by i·stride. The returned value stays on the caller's
// stack as long as the callee does not retain it (see mat.View).
func instView(base *mat.Dense, stride, i int) mat.Dense {
	v := *base
	v.Data = base.Data[i*stride:]
	return v
}

// GemmBatch computes C_i := alpha·op(A_i)·op(B_i) + beta·C_i for
// i in [0, count), with the instances laid out at the given strides.
// Small instances (single-block problems: m <= 128, k <= 256, n <= 2048)
// run fused: panels of as many instances as fit the packing buffers are
// packed back to back, then the macro-kernel sweeps instance after
// instance over the hot packed data, in parallel over contiguous
// instance ranges when workers allow. Larger instances fall back to the
// blocked per-instance driver.
func GemmBatch(transA, transB bool, alpha float64, a *mat.Dense, strideA int, b *mat.Dense, strideB int, beta float64, c *mat.Dense, strideC int, count int) {
	if count <= 0 {
		return
	}
	am, ak := opDims(a, transA)
	bk, bn := opDims(b, transB)
	if ak != bk {
		panic(fmt.Sprintf("blas: gemm batch inner dimension mismatch %d vs %d", ak, bk))
	}
	if c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("blas: gemm batch output %dx%d, want %dx%d", c.Rows, c.Cols, am, bn))
	}
	m, n, k := am, bn, ak
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		for i := 0; i < count; i++ {
			cv := instView(c, strideC, i)
			scaleMatrix(&cv, beta)
		}
		return
	}
	if m <= mc && k <= kc && n <= nc {
		j := newBatchJob(runGemmBatchRange, count)
		j.transA, j.transB = transA, transB
		j.alpha, j.beta = alpha, beta
		j.a, j.b, j.c = *a, *b, *c
		j.sa, j.sb, j.sc = strideA, strideB, strideC
		j.m, j.n, j.k = m, n, k
		j.dispatch(batchParts(count))
		return
	}
	for i := 0; i < count; i++ {
		av := instView(a, strideA, i)
		bv := instView(b, strideB, i)
		cv := instView(c, strideC, i)
		Gemm(transA, transB, alpha, &av, &bv, beta, &cv)
	}
}

// runGemmBatchRange is the shared-packing path for single-block
// instances over the contiguous range [lo, hi): every instance is one
// (jc, pc, ic) block, so its packed panels are contiguous and chunks of
// instances are packed into the range's buffers back to back. Within a
// chunk all instances are packed first, then the macro-kernel runs
// instance after instance — the packed data is still resident, and the
// buffers are acquired once per range instead of twice per instance.
// Tile computations are identical to gemmSerial's, so results match the
// per-instance driver bitwise; the chunking and the range partition
// only group independent instances, they never change per-instance
// arithmetic.
func runGemmBatchRange(bufs *batchBufs, j *batchJob, lo, hi int) {
	m, n, k := j.m, j.n, j.k
	packedA := (m + mr - 1) / mr * mr * k
	packedB := (n + nr - 1) / nr * nr * k
	chunk := min(mc*kc/packedA, kc*nc/packedB)
	if chunk < 1 {
		chunk = 1
	}
	for base := lo; base < hi; base += chunk {
		cnt := min(chunk, hi-base)
		for i := 0; i < cnt; i++ {
			av := instView(&j.a, j.sa, base+i)
			bv := instView(&j.b, j.sb, base+i)
			packA(bufs.bufA[i*packedA:], &av, j.transA, 0, m, 0, k)
			packB(bufs.bufB[i*packedB:], &bv, j.transB, 0, k, 0, n)
		}
		for i := 0; i < cnt; i++ {
			cv := instView(&j.c, j.sc, base+i)
			macroKernel(bufs.bufA[i*packedA:], bufs.bufB[i*packedB:], m, k, j.alpha, j.beta, &cv, 0, 0, 0, n)
		}
	}
}

// SyrkBatch computes the uplo triangle of C_i := alpha·A_i·A_iᵀ +
// beta·C_i (trans: alpha·A_iᵀ·A_i) for i in [0, count). Instances with
// m <= 96 are a single diagonal block: each worker's range shares one
// scratch square and one packing-buffer pair across its instances.
// Larger instances fall back to the blocked driver.
func SyrkBatch(uplo mat.Uplo, trans bool, alpha float64, a *mat.Dense, strideA int, beta float64, c *mat.Dense, strideC int, count int) {
	if count <= 0 {
		return
	}
	m, k := a.Rows, a.Cols
	if trans {
		m, k = a.Cols, a.Rows
	}
	if c.Rows != m || c.Cols != m {
		panic(fmt.Sprintf("blas: syrk batch output %dx%d, want %dx%d", c.Rows, c.Cols, m, m))
	}
	if m == 0 {
		return
	}
	if m > syrkBlock || alpha == 0 || k == 0 {
		for i := 0; i < count; i++ {
			av := instView(a, strideA, i)
			cv := instView(c, strideC, i)
			syrkDriver(uplo, trans, alpha, &av, beta, &cv)
		}
		return
	}
	j := newBatchJob(runSyrkBatchRange, count)
	j.uplo, j.transA = uplo, trans
	j.alpha, j.beta = alpha, beta
	j.a, j.c = *a, *c
	j.sa, j.sc = strideA, strideC
	j.m = m
	j.dispatch(batchParts(count))
}

// runSyrkBatchRange sweeps the single-block SYRK path over instances
// [lo, hi) with the range's buffer set. Per-instance computation is
// identical to syrkDriver's single-block case.
func runSyrkBatchRange(bufs *batchBufs, j *batchJob, lo, hi int) {
	for i := lo; i < hi; i++ {
		av := instView(&j.a, j.sa, i)
		cv := instView(&j.c, j.sc, i)
		sb := bufs.scratch.View(0, j.m, 0, j.m)
		gemmSerialBuf(bufs.bufA, bufs.bufB, j.transA, !j.transA, j.alpha, &av, &av, 0, &sb)
		mergeTriangle(&cv, &sb, 0, j.uplo, j.beta)
	}
}

// SymmBatch computes C_i := alpha·A_i·B_i + beta·C_i for symmetric A_i
// (uplo triangle stored) for i in [0, count). Instances with m <= 96 are
// a single symmetrised block shared through each worker's scratch
// square; larger instances fall back to the blocked driver.
func SymmBatch(uplo mat.Uplo, alpha float64, a *mat.Dense, strideA int, b *mat.Dense, strideB int, beta float64, c *mat.Dense, strideC int, count int) {
	if count <= 0 {
		return
	}
	m := a.Rows
	if a.Cols != m {
		panic(fmt.Sprintf("blas: symm batch A is %dx%d, want square", a.Rows, a.Cols))
	}
	n := b.Cols
	if b.Rows != m || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: symm batch output %dx%d, want %dx%d", c.Rows, c.Cols, m, n))
	}
	if m == 0 || n == 0 {
		return
	}
	if m > syrkBlock || n > nc || alpha == 0 {
		for i := 0; i < count; i++ {
			av := instView(a, strideA, i)
			bv := instView(b, strideB, i)
			cv := instView(c, strideC, i)
			Symm(uplo, alpha, &av, &bv, beta, &cv)
		}
		return
	}
	j := newBatchJob(runSymmBatchRange, count)
	j.uplo = uplo
	j.alpha, j.beta = alpha, beta
	j.a, j.b, j.c = *a, *b, *c
	j.sa, j.sb, j.sc = strideA, strideB, strideC
	j.m = m
	j.dispatch(batchParts(count))
}

// runSymmBatchRange sweeps the single-block SYMM path over instances
// [lo, hi) with the range's buffer set. Per-instance computation is
// identical to Symm's single-block case.
func runSymmBatchRange(bufs *batchBufs, j *batchJob, lo, hi int) {
	for i := lo; i < hi; i++ {
		av := instView(&j.a, j.sa, i)
		bv := instView(&j.b, j.sb, i)
		cv := instView(&j.c, j.sc, i)
		ab := bufs.scratch.View(0, j.m, 0, j.m)
		materialiseSymBlock(&ab, &av, j.uplo, 0, j.m, 0, j.m)
		gemmSerialBuf(bufs.bufA, bufs.bufB, false, false, j.alpha, &ab, &bv, j.beta, &cv)
	}
}

// TrsmBatch solves op(L_i)·X_i = alpha·B_i in place for i in [0, count).
// Instances with m <= trsmNB are a single diagonal block solved with the
// small-triangle kernel directly (in parallel over contiguous instance
// ranges when workers allow); larger instances fall back to the blocked
// driver.
func TrsmBatch(uplo mat.Uplo, transL bool, alpha float64, l *mat.Dense, strideL int, b *mat.Dense, strideB int, count int) {
	if count <= 0 {
		return
	}
	m := l.Rows
	if l.Cols != m {
		panic(fmt.Sprintf("blas: trsm batch L is %dx%d, want square", l.Rows, l.Cols))
	}
	if b.Rows != m {
		panic(fmt.Sprintf("blas: trsm batch B has %d rows, want %d", b.Rows, m))
	}
	if m == 0 || b.Cols == 0 {
		return
	}
	if m > trsmNB {
		for i := 0; i < count; i++ {
			lv := instView(l, strideL, i)
			bv := instView(b, strideB, i)
			Trsm(uplo, transL, alpha, &lv, &bv)
		}
		return
	}
	j := newBatchJob(runTrsmBatchRange, count)
	j.uplo, j.transA = uplo, transL
	j.alpha = alpha
	j.a, j.b = *l, *b
	j.sa, j.sb = strideL, strideB
	j.dispatch(batchParts(count))
}

// runTrsmBatchRange sweeps the small-triangle solve over instances
// [lo, hi); per-instance computation is identical to Trsm's
// single-block case.
func runTrsmBatchRange(_ *batchBufs, j *batchJob, lo, hi int) {
	for i := lo; i < hi; i++ {
		lv := instView(&j.a, j.sa, i)
		bv := instView(&j.b, j.sb, i)
		if j.alpha != 1 {
			scaleMatrix(&bv, j.alpha)
		}
		trsmSmall(j.uplo, j.transA, &lv, &bv)
	}
}

// PotrfBatch factors A_i = L_i·L_iᵀ in place for i in [0, count).
// Instances with n <= 64 run the unblocked kernel directly (exactly what
// the blocked driver does at that size), in parallel over contiguous
// instance ranges when workers allow; larger instances fall back to it.
// A non-positive-definite instance aborts the batch with an error naming
// the lowest failing instance — the one sequential execution would hit
// first.
func PotrfBatch(a *mat.Dense, strideA, count int) error {
	if count <= 0 {
		return nil
	}
	n := a.Rows
	if a.Cols != n {
		return fmt.Errorf("blas: potrf batch of non-square %dx%d", a.Rows, a.Cols)
	}
	const nb = 64 // must match Potrf's block size for identical results
	if n > nb {
		for i := 0; i < count; i++ {
			av := instView(a, strideA, i)
			if err := Potrf(&av); err != nil {
				return fmt.Errorf("%w (batch instance %d)", err, i)
			}
		}
		return nil
	}
	j := newBatchJob(runPotrfBatchRange, count)
	j.a = *a
	j.sa = strideA
	return j.dispatch(batchParts(count))
}

// runPotrfBatchRange factors instances [lo, hi) with the unblocked
// kernel, stopping at the range's first failure.
func runPotrfBatchRange(_ *batchBufs, j *batchJob, lo, hi int) {
	for i := lo; i < hi; i++ {
		av := instView(&j.a, j.sa, i)
		if err := potf2(&av, 0); err != nil {
			j.recordErr(i, err)
			return
		}
	}
}

// AddSymBatch adds the uplo triangles C_i := C_i + A_i for i in
// [0, count).
func AddSymBatch(uplo mat.Uplo, c *mat.Dense, strideC int, a *mat.Dense, strideA, count int) {
	if count <= 0 {
		return
	}
	j := newBatchJob(runAddSymBatchRange, count)
	j.uplo = uplo
	j.a, j.c = *a, *c
	j.sa, j.sc = strideA, strideC
	j.dispatch(batchParts(count))
}

func runAddSymBatchRange(_ *batchBufs, j *batchJob, lo, hi int) {
	for i := lo; i < hi; i++ {
		cv := instView(&j.c, j.sc, i)
		av := instView(&j.a, j.sa, i)
		AddSym(j.uplo, &cv, &av)
	}
}

// Tri2FullBatch mirrors the uplo triangle onto the opposite one for each
// of the count instances.
func Tri2FullBatch(uplo mat.Uplo, c *mat.Dense, strideC, count int) {
	if count <= 0 {
		return
	}
	j := newBatchJob(runTri2FullBatchRange, count)
	j.uplo = uplo
	j.c = *c
	j.sc = strideC
	j.dispatch(batchParts(count))
}

func runTri2FullBatchRange(_ *batchBufs, j *batchJob, lo, hi int) {
	for i := lo; i < hi; i++ {
		cv := instView(&j.c, j.sc, i)
		Tri2Full(j.uplo, &cv)
	}
}
