package engine

import (
	"context"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// randomInputs builds a full input map for the algorithm from the rng,
// matching its declared shapes.
func randomInputs(alg *expr.Algorithm, rng *xrand.Rand) map[string]*mat.Dense {
	in := make(map[string]*mat.Dense, len(alg.Inputs))
	for _, id := range alg.Inputs {
		sh := alg.Shapes[id]
		in[id] = mat.NewRandom(sh.Rows, sh.Cols, rng)
	}
	return in
}

// TestQueryBatchExecFusedHomogeneous pins the fused result path for
// identical queries: same expression, same instance, min-flops — the
// bucket executes through one cached homogeneous batch plan, every
// result is marked fused, and each output is bitwise identical to
// evaluating the selected algorithm on the same inputs through the
// single-instance correctness path.
func TestQueryBatchExecFusedHomogeneous(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	const n = 4
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Expr: "aatb", Instance: expr.Instance{12, 16, 8}}
	}
	algs, err := e.Algorithms("aatb", expr.Instance{12, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0xdead)
	inputs := make([]map[string]*mat.Dense, n)
	for i := range inputs {
		inputs[i] = randomInputs(&algs[0], rng)
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true, Inputs: inputs})
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !r.Fused {
			t.Errorf("query %d not fused", i)
		}
		if r.Output == nil {
			t.Fatalf("query %d: nil output", i)
		}
		var sel *expr.Algorithm
		for j := range algs {
			if algs[j].Index == r.Record.Selected.Index {
				sel = &algs[j]
			}
		}
		want := exec.EvaluateAlgorithm(sel, inputs[i])
		if !mat.Equal(r.Output, want) {
			t.Errorf("query %d: fused output differs from single-instance evaluation", i)
		}
	}
	s := e.Stats()
	if s.FusedQueries != n {
		t.Errorf("fused_queries = %d, want %d", s.FusedQueries, n)
	}
	if s.BatchPlans.Misses == 0 {
		t.Error("no batch plan was compiled for the homogeneous bucket")
	}
}

// TestQueryBatchExecFusedMixed pins the heterogeneous result path:
// queries of one expression at different shapes within one octave per
// dimension share a bucket, execute through one padded mixed plan, and
// each per-instance output is bitwise identical to its single-instance
// evaluation.
func TestQueryBatchExecFusedMixed(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	insts := []expr.Instance{{12, 16, 8}, {14, 18, 10}, {13, 17, 9}}
	qs := make([]Query, len(insts))
	inputs := make([]map[string]*mat.Dense, len(insts))
	sels := make([][]expr.Algorithm, len(insts))
	rng := xrand.New(0x317ed)
	for i, inst := range insts {
		qs[i] = Query{Expr: "aatb", Instance: inst}
		algs, err := e.Algorithms("aatb", inst)
		if err != nil {
			t.Fatal(err)
		}
		sels[i] = algs
		inputs[i] = randomInputs(&algs[0], rng)
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true, Inputs: inputs})
	sameIdx := true
	for _, r := range res[1:] {
		if r.Err == nil && r.Record.Selected.Index != res[0].Record.Selected.Index {
			sameIdx = false
		}
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if sameIdx && !r.Fused {
			t.Errorf("query %d not fused despite one bucket", i)
		}
		var sel *expr.Algorithm
		for j := range sels[i] {
			if sels[i][j].Index == r.Record.Selected.Index {
				sel = &sels[i][j]
			}
		}
		want := exec.EvaluateAlgorithm(sel, inputs[i])
		if !mat.Equal(r.Output, want) {
			t.Errorf("query %d: mixed fused output differs from single-instance evaluation", i)
		}
	}
	if sameIdx {
		if s := e.Stats(); s.FusedQueries != uint64(len(insts)) {
			t.Errorf("fused_queries = %d, want %d", s.FusedQueries, len(insts))
		}
	}
}

// TestQueryBatchExecDefaultFillDeterministic pins that queries without
// caller inputs are filled from a deterministic stream: two identical
// batches produce bitwise-identical outputs.
func TestQueryBatchExecDefaultFillDeterministic(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	qs := []Query{
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
	}
	a := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	b := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("query %d: %v / %v", i, a[i].Err, b[i].Err)
		}
		if !mat.Equal(a[i].Output, b[i].Output) {
			t.Errorf("query %d: default-filled outputs differ across runs", i)
		}
	}
}

// TestQueryBatchExecRejectUnregistered pins the Unregistered reject:
// the simulated backend has no batched path, so a fusable-looking
// bucket executes per query and is counted.
func TestQueryBatchExecRejectUnregistered(t *testing.T) {
	e := New(Config{}) // simulated backend
	qs := []Query{
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("query %d fused on an executor without a batched path", i)
		}
		if r.Output == nil {
			t.Errorf("query %d: nil output on the unfused fallback", i)
		}
	}
	s := e.Stats()
	if s.FuseRejected.Unregistered < 2 {
		t.Errorf("fuse_rejected.unregistered = %d, want >= 2", s.FuseRejected.Unregistered)
	}
	if s.FusedQueries != 0 {
		t.Errorf("fused_queries = %d, want 0", s.FusedQueries)
	}
}

// TestQueryBatchExecRejectTooBigArena pins the TooBigArena reject: a
// bucket whose instance arenas exceed the fused slab budget executes
// per query and is counted.
func TestQueryBatchExecRejectTooBigArena(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	inst := expr.Instance{512, 512, 4}
	be := e.timer.Exec.(exec.BatchExecutor)
	algs, err := e.Algorithms("aatb", inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range algs {
		if w := be.FuseChunk(&algs[i]); w >= 2 {
			t.Skipf("instance %v unexpectedly inside the fused regime (chunk %d)", inst, w)
		}
	}
	qs := []Query{
		{Expr: "aatb", Instance: inst},
		{Expr: "aatb", Instance: inst},
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("query %d fused outside the fused regime", i)
		}
	}
	if s := e.Stats(); s.FuseRejected.TooBigArena < 2 {
		t.Errorf("fuse_rejected.too_big_arena = %d, want >= 2", s.FuseRejected.TooBigArena)
	}
}

// TestQueryBatchExecRejectHeteroPrepadding drives execBucket directly
// with two instances whose chunk widths are more than the padding gate
// apart: the bucket must execute unfused and count the reject. (End to
// end such pairs rarely share an octave bucket, which is the point of
// octave bucketing; the gate is the second line of defence.)
func TestQueryBatchExecRejectHeteroPrepadding(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	be := e.timer.Exec.(exec.BatchExecutor)
	small, err := e.Algorithms("aatb", expr.Instance{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	large, err := e.Algorithms("aatb", expr.Instance{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &small[0], &large[0]
	wa, wb := be.FuseChunk(a), be.FuseChunk(b)
	if wa < 2 || wb < 2 || wa <= heteroPaddingMax*wb {
		t.Skipf("chunk widths %d/%d do not exercise the padding gate", wa, wb)
	}
	out := make([]BatchExecResult, 2)
	e.execBucket([]int{0, 1}, nil, []*expr.Algorithm{a, b}, out)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("instance %d fused across the padding gate", i)
		}
		if r.Output == nil {
			t.Errorf("instance %d: nil output on the unfused fallback", i)
		}
	}
	if s := e.Stats(); s.FuseRejected.HeteroPrepadding != 2 {
		t.Errorf("fuse_rejected.hetero_prepadding = %d, want 2", s.FuseRejected.HeteroPrepadding)
	}
}
