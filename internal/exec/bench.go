package exec

// This file is the benchmark harness for the measured backend: a fixed
// kernel/shape grid, each point timed through a compiled single-call
// plan (CompileCallPlan), with GFLOP/s and allocation counts recorded
// per point. The
// `lamb bench` subcommand persists the report as BENCH_<n>.json so
// successive PRs have a performance trajectory to regress against, and
// Measured.Peak reuses BenchCall for its attainable-rate estimate.

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/stats"
	"lamb/internal/xrand"
)

// BenchResult is one timed point of the benchmark grid.
type BenchResult struct {
	// Kernel is the kernel kind name (gemm, syrk, symm, trsm, potrf).
	Kernel string `json:"kernel"`
	// M, N, K are the call dimensions (N and K zero when unused).
	M int `json:"m"`
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`
	// TransA and TransB record transposed reads (GEMM grid points).
	TransA bool `json:"transa,omitempty"`
	TransB bool `json:"transb,omitempty"`
	// Reps is the number of timed repetitions behind the medians.
	Reps int `json:"reps"`
	// Seconds is the median per-call wall time; BestSeconds the fastest.
	Seconds     float64 `json:"seconds"`
	BestSeconds float64 `json:"best_seconds"`
	// GFlops and BestGFlops convert those times with the call's
	// attributed FLOP count.
	GFlops     float64 `json:"gflops"`
	BestGFlops float64 `json:"best_gflops"`
	// AllocsPerOp counts heap allocations during one steady-state call.
	AllocsPerOp uint64 `json:"allocs_per_op"`
}

// AlgBenchResult is one whole-algorithm timed point: an algorithm of a
// registered expression executed end to end through a compiled plan with
// the full measurement protocol (in-place input refill, cache flush,
// per-call timing).
type AlgBenchResult struct {
	// Expr and Inst identify the expression and the instance sizes.
	Expr string `json:"expr"`
	Inst string `json:"inst"`
	// Alg is the paper's 1-based algorithm index; Calls its call count.
	Alg   int `json:"alg"`
	Calls int `json:"calls"`
	// Reps is the number of timed repetitions behind the medians.
	Reps int `json:"reps"`
	// Seconds is the median total (summed per-call) wall time;
	// BestSeconds the fastest repetition.
	Seconds     float64 `json:"seconds"`
	BestSeconds float64 `json:"best_seconds"`
	// GFlops and BestGFlops convert those times with the algorithm's
	// attributed FLOP count.
	GFlops     float64 `json:"gflops"`
	BestGFlops float64 `json:"best_gflops"`
	// AllocsPerRep counts heap allocations during one steady-state
	// repetition — flush, fill, and all kernel calls included. Zero on a
	// serial host is the compiled-plan guarantee.
	AllocsPerRep uint64 `json:"allocs_per_rep"`
}

// BenchReport is a full benchmark-grid run, serialised to BENCH_<n>.json
// by the lamb bench subcommand.
type BenchReport struct {
	// Backend names the executor that produced the numbers.
	Backend string `json:"backend"`
	// GoMaxProcs and Workers record the parallelism the grid ran with:
	// GOMAXPROCS and the blas worker cap in effect.
	GoMaxProcs int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// PeakGFlops is the attainable-rate estimate (Measured.Peak / 1e9).
	PeakGFlops float64       `json:"peak_gflops"`
	Results    []BenchResult `json:"results"`
	// Algorithms holds the whole-algorithm timing points (lamb bench
	// -algs); absent from kernel-only runs.
	Algorithms []AlgBenchResult `json:"algorithms,omitempty"`
	// Meta carries free-form provenance notes about the run, in
	// particular the host's CPU count.
	Meta map[string]string `json:"meta,omitempty"`
}

// BenchCall times a single kernel call reps times through a compiled
// single-call plan. Operands are refilled in place per repetition
// (in-place kernels like POTRF and TRSM need fresh inputs every time),
// so the steady-state repetitions perform no heap allocations; the
// recorded AllocsPerOp pins that down.
func BenchCall(call kernels.Call, reps int, rng *xrand.Rand) BenchResult {
	if reps < 1 {
		reps = 1
	}
	p, err := CompileCallPlan(call)
	if err != nil {
		panic(fmt.Sprintf("exec: %v", err))
	}
	// Warm up: populate the packing-buffer pools and the instruction
	// cache so the timed repetitions see steady state.
	p.FillInputs(rng)
	p.Execute()
	times := make([]float64, reps)
	for r := range times {
		p.FillInputs(rng)
		start := time.Now()
		p.Execute()
		times[r] = time.Since(start).Seconds()
	}
	best := times[0]
	for _, t := range times {
		if t < best {
			best = t
		}
	}
	med := stats.Median(times)
	// Allocation count for one call, measured outside the timed loop so
	// ReadMemStats doesn't pollute the timings.
	p.FillInputs(rng)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.Execute()
	runtime.ReadMemStats(&m1)
	flops := call.Flops()
	return BenchResult{
		Kernel:      call.Kind.String(),
		M:           call.M,
		N:           call.N,
		K:           call.K,
		TransA:      call.TransA,
		TransB:      call.TransB,
		Reps:        reps,
		Seconds:     med,
		BestSeconds: best,
		GFlops:      flops / med / 1e9,
		BestGFlops:  flops / best / 1e9,
		AllocsPerOp: m1.Mallocs - m0.Mallocs,
	}
}

// BenchAlgorithm times one algorithm end to end on the measured executor
// with the full repetition protocol, recording median and best totals
// plus the per-repetition allocation count.
func BenchAlgorithm(e *Measured, exprName string, inst expr.Instance, alg *expr.Algorithm, reps int) AlgBenchResult {
	if reps < 1 {
		reps = 1
	}
	totals := make([]float64, reps)
	e.TimeAlgorithm(alg, 0) // warm up: compiles the plan
	for r := range totals {
		var sum float64
		for _, t := range e.TimeAlgorithm(alg, uint64(r)) {
			sum += t
		}
		totals[r] = sum
	}
	best := totals[0]
	for _, t := range totals {
		if t < best {
			best = t
		}
	}
	med := stats.Median(totals)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.TimeAlgorithm(alg, 0)
	runtime.ReadMemStats(&m1)
	flops := alg.Flops()
	return AlgBenchResult{
		Expr:         exprName,
		Inst:         inst.String(),
		Alg:          alg.Index,
		Calls:        len(alg.Calls),
		Reps:         reps,
		Seconds:      med,
		BestSeconds:  best,
		GFlops:       flops / med / 1e9,
		BestGFlops:   flops / best / 1e9,
		AllocsPerRep: m1.Mallocs - m0.Mallocs,
	}
}

// benchInstance is the fixed quick instance the whole-algorithm bench
// uses for an expression of the given arity: sizes around 200, staggered
// so no two dimensions coincide.
func benchInstance(arity int) expr.Instance {
	inst := make(expr.Instance, arity)
	for i := range inst {
		inst[i] = 160 + 32*i
	}
	return inst
}

// RunAlgBench times every algorithm of every registered expression at a
// fixed quick instance through compiled plans.
func RunAlgBench(e *Measured, reps int) []AlgBenchResult {
	var out []AlgBenchResult
	for _, name := range expr.Names() {
		ex, err := expr.Lookup(name)
		if err != nil {
			panic(err)
		}
		inst := benchInstance(ex.Arity())
		algs := ex.Algorithms(inst)
		for i := range algs {
			out = append(out, BenchAlgorithm(e, name, inst, &algs[i], reps))
		}
	}
	return out
}

// benchGrid returns the fixed kernel/shape grid: square and skinny GEMMs,
// one or two shapes of each remaining kernel, and the small TRSM and
// POTRF shapes of small compute requests, small enough to finish in
// seconds on the pure-Go backend.
func benchGrid(short bool) []kernels.Call {
	if short {
		return []kernels.Call{
			kernels.NewGemm(96, 96, 96, "A", "B", "C", false, false),
			kernels.NewGemm(192, 192, 192, "A", "B", "C", false, false),
			kernels.NewGemm(96, 96, 96, "A", "B", "C", true, false),
			kernels.NewSyrk(128, 64, "A", "C"),
			kernels.NewSymm(128, 128, "A", "B", "C"),
			kernels.NewTrsm(128, 128, "L", "B", false),
			kernels.NewPotrf(128, "S"),
		}
	}
	grid := []kernels.Call{
		kernels.NewGemm(128, 128, 128, "A", "B", "C", false, false),
		kernels.NewGemm(256, 256, 256, "A", "B", "C", false, false),
		kernels.NewGemm(512, 512, 512, "A", "B", "C", false, false),
		kernels.NewGemm(512, 512, 16, "A", "B", "C", false, false),
		kernels.NewGemm(512, 512, 64, "A", "B", "C", false, false),
		kernels.NewGemm(512, 16, 512, "A", "B", "C", false, false),
		// Transposed reads exercise the strided packing paths (packAᵀ
		// and packB non-transposed are the interleaving cases).
		kernels.NewGemm(256, 256, 256, "A", "B", "C", true, false),
		kernels.NewGemm(256, 256, 256, "A", "B", "C", false, true),
		kernels.NewSyrk(256, 64, "A", "C"),
		kernels.NewSyrk(256, 256, "A", "C"),
		kernels.NewSymm(256, 256, "A", "B", "C"),
		kernels.NewTrsm(256, 256, "L", "B", false),
		kernels.NewTrsm(256, 32, "L", "B", true),
		kernels.NewPotrf(256, "S"),
		kernels.NewPotrf(512, "S"),
	}
	// The small solves and factorisations small compute requests run:
	// one diagonal block of the small-triangle TRSM kernel (n = m and a
	// narrow n = 8, both orientations) and single-block POTRFs.
	for _, m := range []int{32, 48, 64} {
		for _, n := range []int{m, 8} {
			grid = append(grid,
				kernels.NewTrsm(m, n, "L", "B", false),
				kernels.NewTrsm(m, n, "L", "B", true))
		}
	}
	for _, n := range []int{32, 48, 64} {
		grid = append(grid, kernels.NewPotrf(n, "S"))
	}
	return grid
}

// RunBenchGrid runs the fixed benchmark grid on the measured backend and
// assembles the report. With algs set, every algorithm of every
// registered expression is also timed end to end through compiled
// plans.
func RunBenchGrid(short bool, reps int, algs bool) BenchReport {
	e := NewMeasured()
	rng := xrand.New(0xbe9c4)
	rep := BenchReport{
		Backend:    e.Name(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    blas.Workers(),
		PeakGFlops: e.Peak() / 1e9,
		Meta:       map[string]string{"ncpu": strconv.Itoa(runtime.NumCPU())},
	}
	for _, call := range benchGrid(short) {
		rep.Results = append(rep.Results, BenchCall(call, reps, rng))
	}
	if algs {
		rep.Algorithms = RunAlgBench(e, reps)
	}
	return rep
}
