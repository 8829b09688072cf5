// Package exec runs algorithms and measures their execution times.
//
// It defines the Executor interface with two backends:
//
//   - Simulated: evaluates the deterministic machine model
//     (lamb/internal/machine). Used to regenerate the paper-scale
//     experiments exactly and quickly.
//   - Measured: executes the pure-Go BLAS kernels (lamb/internal/blas)
//     and times them with the monotonic clock, flushing the cache before
//     each repetition exactly as the paper does.
//
// The Timer wraps an Executor with the paper's measurement protocol:
// each test is repeated Reps times (the paper uses 10) and the median is
// recorded.
package exec

import (
	"context"
	"fmt"

	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/stats"
)

// benchSalt offsets the repetition index for isolated call benchmarks so
// their noise realisations differ from in-algorithm executions, as two
// separate measurement campaigns would.
const benchSalt = uint64(1) << 32

// Executor runs algorithms or single calls and reports execution times in
// seconds. Implementations must be deterministic given (algorithm, rep)
// for the simulated backend; the measured backend is genuinely noisy.
type Executor interface {
	// TimeAlgorithm runs one repetition of the algorithm after a cache
	// flush and returns the per-call execution times, in call order.
	// Within the repetition the cache is NOT flushed between calls: later
	// calls observe the inter-kernel cache effects the paper studies.
	TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64
	// TimeCallCold benchmarks a single call in isolation with a flushed
	// cache (the Experiment 3 protocol).
	TimeCallCold(call kernels.Call, rep uint64) float64
	// Peak returns the machine's (estimated) peak FLOP rate, used to
	// convert times into efficiencies.
	Peak() float64
	// Name identifies the backend in reports.
	Name() string
}

// BatchExecutor is implemented by executors that can run an algorithm
// fused over many same-shape instances (see BatchPlan). The simulated
// backend does not implement it — its model has no per-dispatch fixed
// costs to amortise — so callers type-assert and fall back to the
// per-instance path.
type BatchExecutor interface {
	// LayoutChunk reports the chunk width of the algorithm laid out as
	// lay: how many instances one fused plan — and one fused
	// measurement repetition — should execute together, so the chunk's
	// working set stays within the slab budget. 0 means out of the fused
	// regime. One fused plan may span up to MaxFusedChunks chunks.
	LayoutChunk(lay *Layout) int
	// TimeAlgorithmBatch runs one fused repetition of the algorithm over
	// count instances after a cache flush and returns per-call times
	// covering all count instances of each call.
	TimeAlgorithmBatch(alg *expr.Algorithm, count int, rep uint64) []float64
}

// Measurement is the result of timing one algorithm with repetitions.
type Measurement struct {
	// Total is the median over repetitions of the summed per-call times —
	// the execution time the paper records for an algorithm.
	Total float64
	// PerCall holds the median per-call times, in call order.
	PerCall []float64
}

// Timer applies the paper's measurement protocol (median of Reps
// repetitions, cache flushed before each) on top of an Executor.
type Timer struct {
	Exec Executor
	// Reps is the number of repetitions; the paper uses 10.
	Reps int
}

// NewTimer returns a Timer with the paper's 10 repetitions.
func NewTimer(e Executor) *Timer { return &Timer{Exec: e, Reps: 10} }

// MeasureSet times every algorithm of a set under the paper's protocol
// and returns one measurement per algorithm, in set order. At width 2 or
// more each repetition executes width instances through one fused plan
// (the executor must implement BatchExecutor, and width should be within
// one fused plan's width, LayoutChunk × MaxFusedChunks), and the
// measurement is per instance — batch times divided by width — so it is
// directly comparable to the per-instance path. Below 2 each repetition
// runs one instance. The context is checked between repetitions, never
// inside one (a repetition's timed region stays allocation- and
// branch-identical to the paper's protocol), so a deadline aborts within
// one repetition's duration; on cancellation the partial measurements
// are discarded and ctx.Err() returned.
func (t *Timer) MeasureSet(ctx context.Context, algs []expr.Algorithm, width int) ([]Measurement, error) {
	if width < 0 {
		return nil, fmt.Errorf("exec: measurement width must be non-negative, got %d", width)
	}
	var be BatchExecutor
	if width >= 2 {
		var ok bool
		if be, ok = t.Exec.(BatchExecutor); !ok {
			return nil, fmt.Errorf("exec: %s cannot execute fused batches", t.Exec.Name())
		}
	}
	out := make([]Measurement, len(algs))
	for i := range algs {
		alg := &algs[i]
		count, rep := 1, func(r int) []float64 { return t.Exec.TimeAlgorithm(alg, uint64(r)) }
		if be != nil {
			count, rep = width, func(r int) []float64 { return be.TimeAlgorithmBatch(alg, width, uint64(r)) }
		}
		m, err := t.measure(ctx, alg, count, rep)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// measure is the paper's protocol over one repetition function: Reps
// repetitions, each returning per-call times covering count instances,
// reduced to per-instance medians. The context is checked between
// repetitions.
func (t *Timer) measure(ctx context.Context, alg *expr.Algorithm, count int, rep func(r int) []float64) (Measurement, error) {
	reps := t.reps()
	totals := make([]float64, reps)
	perCall := make([][]float64, len(alg.Calls))
	for i := range perCall {
		perCall[i] = make([]float64, reps)
	}
	inv := 1 / float64(count)
	for r := 0; r < reps; r++ {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		var sum float64
		for i, ct := range rep(r) {
			perCall[i][r] = ct * inv
			sum += ct * inv
		}
		totals[r] = sum
	}
	m := Measurement{Total: stats.Median(totals), PerCall: make([]float64, len(alg.Calls))}
	for i := range perCall {
		m.PerCall[i] = stats.Median(perCall[i])
	}
	return m, nil
}

// MeasureCallCold benchmarks a single call in isolation (flushed cache),
// returning the median over repetitions.
func (t *Timer) MeasureCallCold(call kernels.Call) float64 {
	reps := t.reps()
	times := make([]float64, reps)
	for r := 0; r < reps; r++ {
		times[r] = t.Exec.TimeCallCold(call, uint64(r))
	}
	return stats.Median(times)
}

func (t *Timer) reps() int {
	if t.Reps <= 0 {
		return 10
	}
	return t.Reps
}

// Efficiency converts a call time into the paper's efficiency metric:
// attributed FLOPs / (time × peak).
func Efficiency(call kernels.Call, seconds, peak float64) float64 {
	if seconds <= 0 || peak <= 0 {
		return 0
	}
	return call.Flops() / (seconds * peak)
}
