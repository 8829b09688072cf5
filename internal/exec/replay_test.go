package exec

import (
	"fmt"
	"testing"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// TestBatchPlanMatchesSequential pins the plan equivalences the compute
// path and perfbench's replay rely on, for every algorithm of every
// registered expression at a random small instance, at blas worker caps
// 1, 2 and 4: a plan compiled into one slab after another plan's stale
// arena computes what a fresh plan computes from the same fill stream,
// and so does every instance of the replay's Plans, at one instance and
// at three repeated ones.
func TestBatchPlanMatchesSequential(t *testing.T) {
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(0))
	var slab Slab
	for _, workers := range []int{1, 2, 4} {
		blas.SetMaxWorkers(workers)
		rng := xrand.New(0xba7c4)
		for _, name := range expr.Names() {
			algs := randomAlgorithmSets(t, rng, name, 1)[0]
			for ai := range algs {
				alg := &algs[ai]
				label := fmt.Sprintf("%s/%s workers=%d", name, alg.Name, workers)
				lay, err := NewLayout(alg)
				if err != nil {
					t.Fatalf("%s: NewLayout: %v", label, err)
				}
				sp := slab.Compile(lay)
				sp.FillInputs(xrand.New(0xf111))
				sp.Execute()
				fp, err := CompilePlan(alg)
				if err != nil {
					t.Fatalf("%s: CompilePlan: %v", label, err)
				}
				fp.FillInputs(xrand.New(0xf111))
				fp.Execute()
				if !mat.Equal(sp.Output(), fp.Output()) {
					t.Errorf("%s: the slab plan differs from a fresh plan", label)
				}
				sp.Release()
				for _, count := range []int{1, 3} {
					ps, err := CompileBatchPlanMixed(repeated(alg, count))
					if err != nil {
						t.Fatalf("%s: CompileBatchPlanMixed: %v", label, err)
					}
					checkBatchMatchesSequential(t, fmt.Sprintf("%s count=%d", label, count), ps, repeated(alg, count))
				}
			}
		}
	}
}

// TestMixedBatchPlanMatchesSequential pins the replay's Plans over
// instances of different shapes: each instance's output is bitwise
// identical to compiling and executing its own plan from the same fill
// stream, for every algorithm of every registered expression, at blas
// worker caps 1, 2, and 4.
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
				ps, err := CompileBatchPlanMixed(mixed)
				if err != nil {
					t.Fatalf("%s: CompileBatchPlanMixed: %v", label, err)
				}
				checkBatchMatchesSequential(t, label, ps, mixed)
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

// checkBatchMatchesSequential fills and executes ps, then replays each
// instance of algs through a plan of its own from the same fill stream
// and requires bitwise-identical outputs.
func checkBatchMatchesSequential(t *testing.T, label string, ps Plans, algs []*expr.Algorithm) {
	t.Helper()
	batch, seq := xrand.New(0xf111), xrand.New(0xf111)
	ps.FillInputs(batch)
	ps.Execute()
	for k, a := range algs {
		sp, err := CompilePlan(a)
		if err != nil {
			t.Fatalf("%s: CompilePlan: %v", label, err)
		}
		sp.FillInputs(seq)
		sp.Execute()
		if !mat.Equal(sp.Output(), ps.Output(k)) {
			t.Errorf("%s: instance %d differs from sequential execution", label, k)
		}
	}
}

// TestBatchPlanFillMatchesSequentialStream pins the replay's fill-stream
// contract: Plans.FillInputs consumes the deterministic stream in the
// same order as count consecutive Plan.FillInputs calls.
func TestBatchPlanFillMatchesSequentialStream(t *testing.T) {
	algs := expr.NewLstSq().Algorithms(expr.Instance{32, 16, 8})
	alg := &algs[0]
	const count = 4
	ps, err := CompileBatchPlanMixed(repeated(alg, count))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CompilePlan(alg)
	if err != nil {
		t.Fatal(err)
	}
	batch, seq := xrand.New(0xabc), xrand.New(0xabc)
	ps.FillInputs(batch)
	for inst := 0; inst < count; inst++ {
		sp.FillInputs(seq)
		for _, id := range alg.Inputs {
			if !mat.Equal(sp.Operand(id), ps[inst].Operand(id)) {
				t.Errorf("input %q of instance %d differs from the sequential fill stream", id, inst)
			}
		}
	}
}

// TestBatchPlanArenaLayout checks plan arenas: a plan's arena is exactly
// its layout's, whether allocated for it or cut from a slab, and the
// replay's Plans give every instance an arena of its own.
func TestBatchPlanArenaLayout(t *testing.T) {
	algs := expr.NewAATB().Algorithms(expr.Instance{24, 16, 8})
	alg := &algs[0]
	lay, err := NewLayout(alg)
	if err != nil {
		t.Fatal(err)
	}
	own, err := CompilePlan(alg)
	if err != nil {
		t.Fatal(err)
	}
	var slab Slab
	lent := slab.Compile(lay)
	defer lent.Release()
	for name, p := range map[string]*Plan{"own": own, "slab": lent} {
		if len(p.arena) != lay.arenaLen {
			t.Errorf("%s plan: arena length %d, want the layout's %d", name, len(p.arena), lay.arenaLen)
		}
	}
	ps, err := CompileBatchPlanMixed(repeated(alg, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range alg.Inputs {
		o0, o1 := ps[0].Operand(id), ps[1].Operand(id)
		o0.Data[0] = 42
		if o1.Data[0] == 42 {
			t.Fatalf("operand %q of instances 0 and 1 alias", id)
		}
		o0.Data[0] = 0
	}
}

// repeated returns count pointers to alg.
func repeated(alg *expr.Algorithm, count int) []*expr.Algorithm {
	algs := make([]*expr.Algorithm, count)
	for i := range algs {
		algs[i] = alg
	}
	return algs
}

// TestMeasuredFuseWidth pins the replay shims' answer: no algorithm,
// small or huge, is in a fused regime.
func TestMeasuredFuseWidth(t *testing.T) {
	e := NewMeasured()
	for _, inst := range []expr.Instance{{8, 8, 8}, {1200, 1200, 1200}} {
		algs := expr.NewAATB().Algorithms(inst)
		if c, w := e.FuseChunk(&algs[0]), e.FuseWidth(&algs[0]); c != 0 || w != 0 {
			t.Errorf("aatb %v: FuseChunk %d, FuseWidth %d; want 0 and 0", inst, c, w)
		}
	}
}
