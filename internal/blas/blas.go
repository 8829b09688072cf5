// Package blas is a from-scratch Go implementation of the three level-3
// BLAS kernels the paper builds its algorithms from — GEMM, SYRK, and
// SYMM — plus the triangle-mirroring data-movement step and the
// LAPACK-level extensions (POTRF, TRSM) used by the least-squares
// expression.
//
// The implementation follows the classic blocked/packed design (Goto,
// BLIS): operands are packed into contiguous micro-panels and a register-
// blocked 8×4 micro-kernel runs over them. On amd64 with AVX2+FMA the
// micro-kernel is hand-vectorized assembly (runtime-detected, with a
// portable Go fallback); everywhere else the pure-Go kernel runs. Packing
// buffers are kept on bounded free lists, so steady-state Gemm calls do
// not allocate. GEMM parallelises BLIS-style: B is packed once per
// (jc, pc) block into a shared buffer and goroutines fan out over the ic
// loop. SYRK and SYMM
// are built on the same macro-kernel machinery, which gives them genuinely
// different performance profiles from GEMM (slower ramps at small sizes,
// due to triangular bookkeeping and symmetric packing) — the very property
// the paper identifies as a driver of anomalies.
//
// This package is the repository's *measured* backend: experiments run on
// it time real kernel executions. The paper ran against MKL on a 10-core
// Xeon; these kernels are slower in absolute terms but expose the same
// structural effects (shape-dependent efficiency, kernel-dependent
// efficiency gaps, cache warm-up between calls).
package blas

import (
	"fmt"
	"runtime"
	"sync"

	"lamb/internal/mat"
	"lamb/internal/par"
)

// Blocking parameters for the packed GEMM. Chosen for typical x86-64
// cache sizes: an MC×KC block of A (128×256 float64 = 256 KiB) fits in
// L2, a KC×NR sliver of B stays in L1.
const (
	mr = 8 // micro-kernel rows
	nr = 4 // micro-kernel cols
	mc = 128
	kc = 256
	nc = 2048
)

// Packing buffers are kept on free lists so steady-state kernel calls do
// not allocate: a Gemm used to allocate a 256 KiB bufA and a 4 MiB bufB
// on every call. A buffer is sized to the call that grows it (packBuf),
// so small products, which pack a few KiB, keep no full-block buffers
// alive; only the parallel driver asks for full blocks.
var (
	bufAs = newFreeList(func() []float64 { return nil })
	bufBs = newFreeList(func() []float64 { return nil })
)

// packBuf returns a buffer of n float64s from f: an idle one, grown
// first if it is shorter than n. Its contents are unspecified.
func packBuf(f *freeList[[]float64], n int) []float64 {
	buf := f.get()
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// freeListCap bounds the idle buffers each free list keeps.
const freeListCap = 8

// freeList is a bounded stack of idle working buffers. Unlike a
// sync.Pool, which every garbage collection empties, it keeps them, so
// the first kernel call after a collection does not allocate and clear a
// fresh 4 MiB bufB. Buffers come back unzeroed; beyond freeListCap idle
// ones, returned buffers are dropped for the collector.
type freeList[T any] struct {
	mu    sync.Mutex
	idle  []T
	alloc func() T
}

func newFreeList[T any](alloc func() T) *freeList[T] {
	return &freeList[T]{idle: make([]T, 0, freeListCap), alloc: alloc}
}

// get returns an idle buffer, or a new one when none is idle.
func (f *freeList[T]) get() T {
	f.mu.Lock()
	if n := len(f.idle); n > 0 {
		x := f.idle[n-1]
		f.idle = f.idle[:n-1]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	return f.alloc()
}

// put returns a buffer to the list.
func (f *freeList[T]) put(x T) {
	f.mu.Lock()
	if len(f.idle) < cap(f.idle) {
		f.idle = append(f.idle, x)
	}
	f.mu.Unlock()
}

// maxWorkers caps GEMM parallelism. Zero means GOMAXPROCS.
var maxWorkers = 0

// SetMaxWorkers caps the number of goroutines used by the kernels.
// n <= 0 restores the default (GOMAXPROCS). It returns the previous cap.
// It is intended for benchmarking and tests and is not safe to call
// concurrently with running kernels.
func SetMaxWorkers(n int) int {
	old := maxWorkers
	maxWorkers = n
	return old
}

// Workers returns the effective worker cap: the value set by
// SetMaxWorkers, or GOMAXPROCS when unset.
func Workers() int { return workers() }

func workers() int {
	w := maxWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// roundUp rounds n up to a multiple of q.
func roundUp(n, q int) int { return (n + q - 1) / q * q }

// opDims returns the dimensions of op(X) given trans.
func opDims(x *mat.Dense, trans bool) (r, c int) {
	if trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

// parThreshold is the m·n·k product above which GEMM (and the SYRK/SYMM
// block drivers) go parallel; smaller problems run serially.
const parThreshold = 64 * 64 * 64

// Gemm computes C := alpha·op(A)·op(B) + beta·C, where op(X) is X or Xᵀ
// according to transA/transB. op(A) must be m×k, op(B) k×n, and C m×n,
// with m, n, k implied by the operand shapes. It panics on mismatched
// dimensions.
func Gemm(transA, transB bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	am, ak := opDims(a, transA)
	bk, bn := opDims(b, transB)
	if ak != bk {
		panic(fmt.Sprintf("blas: gemm inner dimension mismatch %d vs %d", ak, bk))
	}
	if c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("blas: gemm output %dx%d, want %dx%d", c.Rows, c.Cols, am, bn))
	}
	m, n, k := am, bn, ak
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		scaleMatrix(c, beta)
		return
	}
	nw := workers()
	if nw > 1 && float64(m)*float64(n)*float64(k) >= parThreshold {
		gemmParallel(nw, transA, transB, alpha, a, b, beta, c)
		return
	}
	gemmSerial(transA, transB, alpha, a, b, beta, c)
}

// parallelCols splits [0, n) into roughly equal stripes aligned to the
// micro-kernel width and runs f over them on at most nw goroutines.
func parallelCols(nw, n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := (n + nw - 1) / nw
	// Align up to a multiple of nr so stripes don't split micro-tiles.
	if rem := chunk % nr; rem != 0 {
		chunk += nr - rem
	}
	nstripes := (n + chunk - 1) / chunk
	par.For(nstripes, nw, func(s int) {
		lo := s * chunk
		f(lo, min(lo+chunk, n))
	})
}

// gemmParallel is the multi-goroutine blocked implementation. It follows
// the BLIS threading scheme: for each (jc, pc) block, B is packed *once*
// into a shared buffer, then workers fan out over the ic loop, each
// packing its own MC×KC block of A. When A has a single row block the
// workers split the packed-B micro-panel range instead, so wide-and-short
// products still parallelise.
func gemmParallel(nw int, transA, transB bool, alpha float64, aArg, bArg *mat.Dense, beta float64, cArg *mat.Dense) {
	// The fan-out closures must capture copies of the operand headers,
	// not the caller's pointers: if Gemm's parameters leaked into
	// goroutine closures, escape analysis would force every caller-side
	// view (mat.View in the block drivers) onto the heap, breaking the
	// kernels' zero-allocation guarantee.
	av, bv, cv := *aArg, *bArg, *cArg
	a, b, c := &av, &bv, &cv
	m, _ := opDims(a, transA)
	k, n := opDims(b, transB)
	bufB := packBuf(bufBs, kc*nc)
	defer bufBs.put(bufB)
	nblkA := (m + mc - 1) / mc
	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			packB(bufB, b, transB, pc, pc+kcb, jc, jc+ncb)
			betaEff := 1.0
			if pc == 0 {
				betaEff = beta
			}
			if nblkA > 1 {
				par.For(nblkA, nw, func(blk int) {
					ic := blk * mc
					mcb := min(mc, m-ic)
					bufA := packBuf(bufAs, mc*kc)
					packA(bufA, a, transA, ic, ic+mcb, pc, pc+kcb)
					macroKernel(bufA, bufB, mcb, kcb, alpha, betaEff, c, ic, jc, 0, ncb)
					bufAs.put(bufA)
				})
				continue
			}
			// Single row block: pack A once, split the jr loop.
			bufA := packBuf(bufAs, mc*kc)
			packA(bufA, a, transA, 0, m, pc, pc+kcb)
			parallelCols(nw, ncb, func(q0, q1 int) {
				macroKernel(bufA, bufB, m, kcb, alpha, betaEff, c, 0, jc, q0, q1)
			})
			bufAs.put(bufA)
		}
	}
}

// gemmSerial is the single-goroutine blocked implementation.
func gemmSerial(transA, transB bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	m, _ := opDims(a, transA)
	k, n := opDims(b, transB)
	// The largest blocks this call packs; ragged panels pad to the
	// micro-kernel's mr rows and nr columns.
	kb := min(k, kc)
	bufA := packBuf(bufAs, min(roundUp(m, mr), mc)*kb)
	bufB := packBuf(bufBs, kb*min(roundUp(n, nr), nc))
	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			packB(bufB, b, transB, pc, pc+kcb, jc, jc+ncb)
			betaEff := 1.0
			if pc == 0 {
				betaEff = beta
			}
			for ic := 0; ic < m; ic += mc {
				mcb := min(mc, m-ic)
				packA(bufA, a, transA, ic, ic+mcb, pc, pc+kcb)
				macroKernel(bufA, bufB, mcb, kcb, alpha, betaEff, c, ic, jc, 0, ncb)
			}
		}
	}
	bufAs.put(bufA)
	bufBs.put(bufB)
}

// scaleMatrix computes X := beta·X, treating beta == 0 as assignment
// (clearing NaNs, matching BLAS semantics).
func scaleMatrix(x *mat.Dense, beta float64) {
	switch beta {
	case 1:
		return
	case 0:
		x.Zero()
	default:
		for j := 0; j < x.Cols; j++ {
			col := x.Data[j*x.Stride : j*x.Stride+x.Rows]
			for i := range col {
				col[i] *= beta
			}
		}
	}
}
