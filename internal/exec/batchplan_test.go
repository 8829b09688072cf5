package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/machine"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// TestBatchPlanMatchesSequential pins the tentpole equivalence: a fused
// batch execution produces bitwise-identical results to running the
// single-instance plan once per instance from the same fill stream —
// for a batch of one (serial kernels) and a homogeneous batch (batched
// drivers) — for every algorithm of every registered expression at a
// random small instance. It runs at blas worker caps 1, 2, and 4, so
// the parallel batched drivers are held to the same bitwise standard as
// the serial ones, and with a batch wider than one fused chunk
// (72 > 64), so the chunked regime is covered too.
func TestBatchPlanMatchesSequential(t *testing.T) {
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(0))
	for _, workers := range []int{1, 2, 4} {
		blas.SetMaxWorkers(workers)
		rng := xrand.New(0xba7c4)
		count := 3
		if workers > 1 {
			count = 72 // wider than one chunk: exercises partitioning + chunk sweep
		}
		for _, name := range expr.Names() {
			algs := randomAlgorithmSets(t, rng, name, 1)[0]
			for ai := range algs {
				alg := &algs[ai]
				homog := make([]*expr.Algorithm, count)
				for k := range homog {
					homog[k] = alg
				}
				label := fmt.Sprintf("%s/%s workers=%d", name, alg.Name, workers)
				bp, err := CompileBatchPlan(alg, 1)
				if err != nil {
					t.Fatalf("%s single: CompileBatchPlan: %v", label, err)
				}
				checkBatchMatchesSequential(t, label+" single", bp, homog[:1])
				if bp, err = CompileBatchPlan(alg, count); err != nil {
					t.Fatalf("%s homogeneous: CompileBatchPlan: %v", label, err)
				}
				checkBatchMatchesSequential(t, label+" homogeneous", bp, homog)
			}
		}
	}
}

// TestMixedBatchPlanMatchesSequential pins the heterogeneous
// equivalence property: a mixed batch (one expression, one algorithm
// family, instances of different shapes padded to a common stride)
// produces bitwise-identical per-instance results to compiling and
// executing each instance's single plan from the same fill stream, for
// every algorithm of every registered expression, at blas worker caps
// 1, 2, and 4.
func TestMixedBatchPlanMatchesSequential(t *testing.T) {
	const count = 5
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(0))
	for _, workers := range []int{1, 2, 4} {
		blas.SetMaxWorkers(workers)
		rng := xrand.New(0x3417ed)
		for _, name := range expr.Names() {
			sets := randomAlgorithmSets(t, rng, name, count)
			for ai := range sets[0] {
				mixed := make([]*expr.Algorithm, count)
				for j := range mixed {
					mixed[j] = &sets[j][ai]
				}
				label := fmt.Sprintf("%s/%s mixed workers=%d", name, sets[0][ai].Name, workers)
				mp, err := CompileBatchPlanMixed(mixed)
				if err != nil {
					t.Fatalf("%s: CompileBatchPlanMixed: %v", label, err)
				}
				if mp.Stride()%batchAlign != 0 {
					t.Errorf("%s: stride %d not %d-aligned", label, mp.Stride(), batchAlign)
				}
				checkBatchMatchesSequential(t, label, mp, mixed)
			}
		}
	}
}

// randomAlgorithmSets binds the named expression at n random small
// instances and returns each instance's algorithm set.
func randomAlgorithmSets(t *testing.T, rng *xrand.Rand, name string, n int) [][]expr.Algorithm {
	t.Helper()
	ex, err := expr.Lookup(name)
	if err != nil {
		t.Fatalf("lookup %q: %v", name, err)
	}
	sets := make([][]expr.Algorithm, n)
	for j := range sets {
		inst := make(expr.Instance, ex.Arity())
		for i := range inst {
			inst[i] = 5 + rng.Intn(28)
		}
		sets[j] = ex.Algorithms(inst)
	}
	return sets
}

// checkBatchMatchesSequential fills and executes bp, then replays each
// instance of algs through its single-instance plan from the same fill
// stream and requires bitwise-identical outputs.
func checkBatchMatchesSequential(t *testing.T, label string, bp *BatchPlan, algs []*expr.Algorithm) {
	t.Helper()
	fused, seq := xrand.New(0xf111), xrand.New(0xf111)
	bp.FillInputs(fused)
	bp.Execute()
	var sp *Plan
	for k, a := range algs {
		if sp == nil || a != algs[k-1] {
			var err error
			if sp, err = CompilePlan(a); err != nil {
				t.Fatalf("%s: CompilePlan: %v", label, err)
			}
		}
		sp.FillInputs(seq)
		sp.Execute()
		if !mat.Equal(sp.Output(), bp.Output(k)) {
			t.Errorf("%s: instance %d differs from sequential execution", label, k)
		}
	}
}

// TestMixedBatchPlanRejectsForeignStructure checks the mixed compiler's
// gate: algorithms with different call structures cannot share a plan.
func TestMixedBatchPlanRejectsForeignStructure(t *testing.T) {
	a := expr.NewAATB().Algorithms(expr.Instance{8, 8, 8})
	b := expr.NewLstSq().Algorithms(expr.Instance{16, 8, 4})
	if _, err := CompileBatchPlanMixed([]*expr.Algorithm{&a[0], &b[0]}); err == nil {
		t.Error("mixed plan accepted algorithms of different expressions")
	}
	if len(a) > 1 {
		if _, err := CompileBatchPlanMixed([]*expr.Algorithm{&a[0], &a[1]}); err == nil {
			t.Error("mixed plan accepted two different algorithms of one expression")
		}
	}
}

// TestBatchPlanFillMatchesSequentialStream pins the fill-stream
// contract: BatchPlan.FillInputs consumes the deterministic stream in
// the same order as count consecutive Plan.FillInputs calls, so fused
// and sequential measurements see identical operand contents.
func TestBatchPlanFillMatchesSequentialStream(t *testing.T) {
	algs := expr.NewLstSq().Algorithms(expr.Instance{32, 16, 8})
	alg := &algs[0]
	const count = 4
	bp, err := CompileBatchPlan(alg, count)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CompilePlan(alg)
	if err != nil {
		t.Fatal(err)
	}
	fused, seq := xrand.New(0xabc), xrand.New(0xabc)
	bp.FillInputs(fused)
	for inst := 0; inst < count; inst++ {
		sp.FillInputs(seq)
		for _, id := range alg.Inputs {
			if !mat.Equal(sp.Operand(id), bp.Operand(inst, id)) {
				t.Errorf("input %q of instance %d differs from the sequential fill stream", id, inst)
			}
		}
	}
}

// TestBatchPlanArenaLayout checks the slab geometry: cache-line-aligned
// instance stride, arena covering all instances, and operands of
// adjacent instances exactly one stride apart.
func TestBatchPlanArenaLayout(t *testing.T) {
	algs := expr.NewAATB().Algorithms(expr.Instance{24, 16, 8})
	alg := &algs[0]
	const count = 5
	bp, err := CompileBatchPlan(alg, count)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Count() != count {
		t.Errorf("Count() = %d, want %d", bp.Count(), count)
	}
	if bp.Stride()%batchAlign != 0 {
		t.Errorf("stride %d not %d-aligned", bp.Stride(), batchAlign)
	}
	if got, want := bp.ArenaLen(), bp.Stride()*count; got != want {
		t.Errorf("ArenaLen() = %d, want stride·count = %d", got, want)
	}
	sp, err := CompilePlan(alg)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Stride() < sp.ArenaLen() {
		t.Errorf("stride %d smaller than single-instance arena %d", bp.Stride(), sp.ArenaLen())
	}
	for _, id := range alg.Inputs {
		o0, o1 := bp.Operand(0, id), bp.Operand(1, id)
		o0.Data[0] = 42
		if o1.Data[0] == 42 {
			t.Fatalf("operand %q of instances 0 and 1 alias", id)
		}
		o0.Data[0] = 0
	}
}

// TestMeasuredTimeAlgorithmBatchZeroAllocs extends the zero-alloc
// guarantee to the fused batched paths: after the batch plan is
// compiled (first repetition), a fused batch repetition — refill all
// instances, flush, execute every batched call — performs zero heap
// allocations, serial and through the parallel tier alike (the
// persistent workers and pooled job descriptors keep the parallel
// dispatch alloc-free). A mixed plan's fill and Execute are held to the
// same standard.
func TestMeasuredTimeAlgorithmBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(1))
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	type allocCase struct {
		label string
		rep   func()
	}
	var cases []allocCase
	for _, tc := range []struct {
		name      string
		algs, alt []expr.Algorithm
		count     int
	}{
		{"chain", expr.NewChainABCD().Algorithms(expr.Instance{24, 16, 20, 12, 8}),
			expr.NewChainABCD().Algorithms(expr.Instance{20, 18, 16, 10, 12}), 8},
		{"aatb", expr.NewAATB().Algorithms(expr.Instance{24, 16, 8}),
			expr.NewAATB().Algorithms(expr.Instance{20, 12, 8}), 16},
		{"lstsq", expr.NewLstSq().Algorithms(expr.Instance{32, 16, 8}),
			expr.NewLstSq().Algorithms(expr.Instance{28, 12, 8}), 8},
	} {
		for i := range tc.algs {
			alg, count := &tc.algs[i], tc.count
			cases = append(cases, allocCase{
				fmt.Sprintf("%s algorithm %d (%s)", tc.name, alg.Index, alg.Name),
				func() { e.TimeAlgorithmBatch(alg, count, 1) },
			})
			mp, err := CompileBatchPlanMixed([]*expr.Algorithm{alg, &tc.alt[i], alg})
			if err != nil {
				t.Fatalf("%s algorithm %d: CompileBatchPlanMixed: %v", tc.name, alg.Index, err)
			}
			rng := xrand.New(0x3417ed)
			cases = append(cases, allocCase{
				fmt.Sprintf("%s algorithm %d (%s) mixed fill+execute", tc.name, alg.Index, alg.Name),
				func() { mp.FillInputs(rng); mp.Execute() },
			})
		}
	}
	for _, workers := range []int{1, 2} {
		blas.SetMaxWorkers(workers)
		for _, c := range cases {
			c.rep() // compile the plan, warm pools + workers
			if allocs := testing.AllocsPerRun(10, c.rep); allocs != 0 {
				t.Errorf("workers=%d %s: %v allocs per fused batch repetition, want 0", workers, c.label, allocs)
			}
		}
	}
}

// TestMeasuredFuseWidth checks the fused-regime gate: small instances
// fuse one full chunk (64) and span the chunk cap in total (512), huge
// instances don't fuse at all, and the chunk width always divides the
// budget consistently with the total width.
func TestMeasuredFuseWidth(t *testing.T) {
	e := NewMeasured()
	small := expr.NewAATB().Algorithms(expr.Instance{8, 8, 8})
	if w := e.FuseChunk(&small[0]); w != 64 {
		t.Errorf("FuseChunk(8-dim aatb) = %d, want the 64 chunk cap", w)
	}
	if w := e.FuseWidth(&small[0]); w != 64*MaxFusedChunks {
		t.Errorf("FuseWidth(8-dim aatb) = %d, want chunk·MaxFusedChunks = %d", w, 64*MaxFusedChunks)
	}
	big := expr.NewAATB().Algorithms(expr.Instance{1200, 1200, 1200})
	if w := e.FuseChunk(&big[0]); w != 0 {
		t.Errorf("FuseChunk(1200-dim aatb) = %d, want 0 (outside the fused regime)", w)
	}
	if w := e.FuseWidth(&big[0]); w != 0 {
		t.Errorf("FuseWidth(1200-dim aatb) = %d, want 0 (outside the fused regime)", w)
	}
}

// TestMeasureSetFusedPath checks the fused measurement protocol: one
// per-instance measurement per algorithm, rejection of a negative
// width, context cancellation between repetitions, and rejection of
// executors without a batched path.
func TestMeasureSetFusedPath(t *testing.T) {
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	timer := &Timer{Exec: e, Reps: 2}
	algs := expr.NewAATB().Algorithms(expr.Instance{16, 8, 8})[:2]
	ms, err := timer.MeasureSet(context.Background(), algs, 8)
	if err != nil {
		t.Fatalf("MeasureSet: %v", err)
	}
	if len(ms) != len(algs) {
		t.Fatalf("%d measurements for %d algorithms", len(ms), len(algs))
	}
	for i, m := range ms {
		if m.Total <= 0 || len(m.PerCall) != len(algs[i].Calls) {
			t.Errorf("measurement %d %+v malformed", i, m)
		}
	}
	if _, err := timer.MeasureSet(context.Background(), algs, -1); err == nil {
		t.Error("negative measurement width accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := timer.MeasureSet(ctx, algs, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err %v, want context.Canceled", err)
	}
	simTimer := &Timer{Exec: NewSimulated(machine.NewDefault()), Reps: 2}
	want := fmt.Sprintf("exec: %s cannot execute fused batches", simTimer.Exec.Name())
	if _, err := simTimer.MeasureSet(context.Background(), algs, 8); err == nil || err.Error() != want {
		t.Errorf("simulated executor fused measurement: err %v, want %q", err, want)
	}
}
