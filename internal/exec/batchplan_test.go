package exec

import (
	"fmt"
	"testing"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// TestBatchPlanMatchesSequential pins the fused equivalence: a batch
// execution produces bitwise-identical results to running the
// single-instance plan once per instance from the same fill stream —
// for a batch of one and a homogeneous batch — for every algorithm of
// every registered expression at a random small instance. It runs at
// blas worker caps 1, 2, and 4, and with a batch wider than one fused
// chunk (72 > 64).
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
				homog := repeated(alg, count)
				label := fmt.Sprintf("%s/%s workers=%d", name, alg.Name, workers)
				bp, err := CompileBatchPlanMixed(homog[:1])
				if err != nil {
					t.Fatalf("%s single: CompileBatchPlanMixed: %v", label, err)
				}
				checkBatchMatchesSequential(t, label+" single", bp, homog[:1])
				if bp, err = CompileBatchPlanMixed(homog); err != nil {
					t.Fatalf("%s homogeneous: CompileBatchPlanMixed: %v", label, err)
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
	bp, err := CompileBatchPlanMixed(repeated(alg, count))
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
	bp, err := CompileBatchPlanMixed(repeated(alg, count))
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

// repeated returns count pointers to alg: the homogeneous batch that
// CompileBatchPlanMixed lays out once.
func repeated(alg *expr.Algorithm, count int) []*expr.Algorithm {
	algs := make([]*expr.Algorithm, count)
	for i := range algs {
		algs[i] = alg
	}
	return algs
}

// TestBatchPlanFillExecuteZeroAllocs extends the zero-alloc guarantee
// to fused batch plans: once compiled, a homogeneous plan's and a mixed
// plan's fill and Execute — every call of every instance — perform
// zero heap allocations at worker caps 1 and 2.
func TestBatchPlanFillExecuteZeroAllocs(t *testing.T) {
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(1))
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
			alg := &tc.algs[i]
			for _, c := range []struct {
				kind string
				algs []*expr.Algorithm
			}{
				{"homogeneous", repeated(alg, tc.count)},
				{"mixed", []*expr.Algorithm{alg, &tc.alt[i], alg}},
			} {
				p, err := CompileBatchPlanMixed(c.algs)
				if err != nil {
					t.Fatalf("%s algorithm %d %s: CompileBatchPlanMixed: %v", tc.name, alg.Index, c.kind, err)
				}
				rng := xrand.New(0x3417ed)
				cases = append(cases, allocCase{
					fmt.Sprintf("%s algorithm %d (%s) %s fill+execute", tc.name, alg.Index, alg.Name, c.kind),
					func() { p.FillInputs(rng); p.Execute() },
				})
			}
		}
	}
	for _, workers := range []int{1, 2} {
		blas.SetMaxWorkers(workers)
		for _, c := range cases {
			c.rep() // warm the pools
			if allocs := testing.AllocsPerRun(10, c.rep); allocs != 0 {
				t.Errorf("workers=%d %s: %v allocs per fill and execution, want 0", workers, c.label, allocs)
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
