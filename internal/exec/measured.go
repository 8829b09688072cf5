package exec

import (
	"fmt"
	"sync"
	"time"

	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// Measured is the Executor that runs the pure-Go BLAS kernels and times
// them with the monotonic clock. It follows the paper's protocol: before
// each repetition the cache is flushed by streaming through a buffer
// larger than any realistic LLC; within a repetition the calls run
// back-to-back so inter-kernel cache effects are present.
//
// Operand contents never influence BLAS timing (dense unstructured
// inputs), so inputs are filled once per algorithm from a deterministic
// stream.
type Measured struct {
	// FlushBytes is the size of the cache-flushing buffer. The default
	// (32 MiB) exceeds typical LLCs.
	FlushBytes int

	flushBuf []float64
	fillRng  *xrand.Rand

	peakOnce sync.Once
	peak     float64

	// The protocol runs one measurement's repetitions back to back, so
	// each timing method keeps the plan of its last measurement only,
	// keyed by what it measured, and compiles afresh when that changes.
	// One plan per method, not one for all three, lets a caller
	// alternate TimeAlgorithm and TimeAlgorithmBatch on one algorithm
	// (as BenchBatch does) without recompiling.
	algKey    *expr.Algorithm
	algPlan   *Plan
	batchKey  batchKey
	batchPlan *BatchPlan
	callKey   kernels.Key
	callPlan  *Plan
}

// batchKey identifies a fused batch plan: the bound algorithm plus the
// number of instances it was compiled for.
type batchKey struct {
	alg   *expr.Algorithm
	count int
}

// NewMeasured returns a measured executor with default settings.
func NewMeasured() *Measured {
	return &Measured{
		FlushBytes: 32 << 20,
		fillRng:    xrand.New(0xfeed),
	}
}

// flushCache streams writes through the flush buffer, evicting cached
// operand data (the paper flushes the cache before each repetition). The
// buffer is re-sized whenever FlushBytes changes, so adjusting the field
// after the first flush takes effect.
func (e *Measured) flushCache() {
	n := e.FlushBytes / 8
	if n < 1024 {
		n = 1024
	}
	if len(e.flushBuf) != n {
		e.flushBuf = make([]float64, n)
	}
	for i := range e.flushBuf {
		e.flushBuf[i] += 1
	}
}

// mustCompile returns the compiled plan p, panicking on a compile
// error: an executor is handed validated algorithms and calls.
func mustCompile[P any](p P, err error) P {
	if err != nil {
		panic(fmt.Sprintf("exec: %v", err))
	}
	return p
}

// EvaluateAlgorithm runs the algorithm's calls on the provided input
// operands and returns the final result. It compiles a fresh plan, so
// the caller's inputs are copied, never mutated; inputs the caller does
// not supply read as zero. This is the correctness path: all algorithms
// of an expression must produce (numerically) the same result.
func EvaluateAlgorithm(alg *expr.Algorithm, inputs map[string]*mat.Dense) *mat.Dense {
	p, err := CompilePlan(alg)
	if err != nil {
		panic(fmt.Sprintf("exec: %v", err))
	}
	for _, id := range alg.Inputs {
		if _, ok := inputs[id]; !ok {
			if m := p.Operand(id); m != nil {
				m.Zero()
			}
		}
	}
	for id, in := range inputs {
		if _, ok := alg.Shapes[id]; !ok {
			continue // extra inputs are ignored, matching the map-based path
		}
		p.SetInput(id, in)
	}
	p.Execute()
	return p.Output()
}

// TimeAlgorithm implements Executor: inputs are refilled in place from
// the deterministic stream, the cache is flushed, and the pre-compiled
// plan runs with per-call timing. The plan is compiled on the first
// repetition of alg; after that nothing on this path allocates — in
// particular, nothing allocates between the cache flush and the first
// kernel call. The returned slice is owned by the executor and reused
// by the next call.
func (e *Measured) TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64 {
	if e.algPlan == nil || e.algKey != alg {
		e.algPlan, e.algKey = mustCompile(CompilePlan(alg)), alg
	}
	e.algPlan.FillInputs(e.fillRng)
	e.flushCache()
	return e.algPlan.ExecuteTimed()
}

// batchSlabFloats is the fused-batch slab budget in float64s (4 MiB).
// Fusing exists to amortise fixed per-dispatch costs across instances
// whose working sets are cache-resident; the budget applies per *chunk*
// — the contiguous instance range one fused plan executes — not per
// batch, so wide batches execute as successive chunks while each
// chunk's working set stays cache-sized. Instances whose arena cannot
// fit at least two slabs in the budget are not fused at all.
const batchSlabFloats = (4 << 20) / 8

// MaxFusedChunks bounds how many chunk widths one fused batch plan may
// span: N instances execute as ⌈N/chunk⌉ chunks, so the total fusable
// width is FuseChunk × MaxFusedChunks (up to 512 instances for the
// smallest strides). The cap keeps one plan's arena bounded (≤ 8 slab
// budgets).
const MaxFusedChunks = 8

// FuseChunk returns the chunk width for alg (see LayoutChunk), laying
// alg out first. 0 means the algorithm is out of the fused regime, or
// not compilable, which the caller will surface through the ordinary
// per-instance path.
func (e *Measured) FuseChunk(alg *expr.Algorithm) int {
	lay, err := NewLayout(alg)
	if err != nil {
		return 0
	}
	return e.LayoutChunk(lay)
}

// LayoutChunk implements BatchExecutor: the chunk width for the
// algorithm laid out as lay — how many instances one fused plan (and
// one fused measurement repetition) should execute together so the
// chunk's arena fits the slab budget at least twice. 0 means the
// algorithm is out of the fused regime (instance arena too large).
func (e *Measured) LayoutChunk(lay *Layout) int {
	w := batchSlabFloats / slabStride(lay.arenaLen)
	if w < 2 {
		return 0
	}
	return min(w, 64)
}

// FuseWidth returns the total number of instances of alg one fused
// batch plan may carry — the chunk width times MaxFusedChunks. 0 means
// the algorithm is out of the fused regime.
func (e *Measured) FuseWidth(alg *expr.Algorithm) int {
	return e.FuseChunk(alg) * MaxFusedChunks
}

// TimeAlgorithmBatch implements BatchExecutor: one fused repetition over
// count instances — all instances refilled, one cache flush, one fused
// plan execution. The returned per-call times cover all count instances
// of each call. The batch plan is compiled on the first repetition of
// (alg, count); after that nothing on this path allocates. The returned
// slice is owned by the executor and reused by the next call.
func (e *Measured) TimeAlgorithmBatch(alg *expr.Algorithm, count int, rep uint64) []float64 {
	if key := (batchKey{alg, count}); e.batchPlan == nil || e.batchKey != key {
		e.batchPlan, e.batchKey = mustCompile(CompileBatchPlan(alg, count)), key
	}
	e.batchPlan.FillInputs(e.fillRng)
	e.flushCache()
	return e.batchPlan.ExecuteTimed()
}

// TimeCallCold implements Executor: the call runs through a compiled
// single-call plan whose operands are refilled in place at every
// repetition, so no allocation happens after the cache flush. Calls
// with equal MemoKeys share the plan (operand IDs do not affect
// performance), compiled on the first repetition of that key.
func (e *Measured) TimeCallCold(call kernels.Call, rep uint64) float64 {
	if key := call.MemoKey(); e.callPlan == nil || e.callKey != key {
		e.callPlan, e.callKey = mustCompile(CompileCallPlan(call)), key
	}
	e.callPlan.FillInputs(e.fillRng)
	e.flushCache()
	start := time.Now()
	e.callPlan.Execute()
	return time.Since(start).Seconds()
}

// Peak implements Executor: an estimate of the machine's attainable FLOP
// rate, measured once from square GEMM runs through the shared benchmark
// harness (see BenchCall). Efficiencies reported by the measured backend
// are relative to this estimate.
func (e *Measured) Peak() float64 {
	e.peakOnce.Do(func() {
		rng := xrand.New(0xbeef)
		best := 0.0
		for _, s := range []int{192, 320} {
			res := BenchCall(kernels.NewGemm(s, s, s, "A", "B", "C", false, false), 3, rng)
			if f := res.BestGFlops * 1e9; f > best {
				best = f
			}
		}
		e.peak = best
	})
	return e.peak
}

// Name implements Executor.
func (e *Measured) Name() string { return "measured/pure-go-blas" }
