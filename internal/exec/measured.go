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
	// One plan per method, not one for both, lets a caller alternate
	// TimeAlgorithm and TimeCallCold without recompiling.
	algKey   *expr.Algorithm
	algPlan  *Plan
	callKey  kernels.Key
	callPlan *Plan
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
	p := mustCompile(CompilePlan(alg))
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
