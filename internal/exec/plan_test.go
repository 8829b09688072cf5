package exec

// Tests for the compiled-execution-plan layer: plan-vs-map evaluation
// equivalence across every registered expression, the zero-allocation
// guarantee of the measured timing paths, and the liveness-based arena
// layout.

import (
	"fmt"
	"testing"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// evaluateWithMap is the pre-plan evaluation path: operands in a string-
// keyed map, every call routed through the dispatch switch. Kept as the
// reference the plan path is pinned against.
func evaluateWithMap(alg *expr.Algorithm, inputs map[string]*mat.Dense) *mat.Dense {
	ops := make(map[string]*mat.Dense, len(alg.Shapes))
	for id, sh := range alg.Shapes {
		if in, ok := inputs[id]; ok {
			ops[id] = in.Clone()
			continue
		}
		ops[id] = mat.New(sh.Rows, sh.Cols)
	}
	for _, call := range alg.Calls {
		dispatch(call, ops)
	}
	return ops[alg.Output]
}

// dispatch executes a single call on the operand map using the pure-Go
// BLAS kernels. Symmetric kernels use the lower triangle, matching the
// SYRK outputs produced here. It shares no code with the compiled plans
// (the binder table), so it is their independent oracle.
func dispatch(call kernels.Call, ops map[string]*mat.Dense) {
	switch call.Kind {
	case kernels.Gemm:
		blas.Gemm(call.TransA, call.TransB, 1, ops[call.In[0]], ops[call.In[1]], 0, ops[call.Out])
	case kernels.Syrk:
		if call.TransA {
			blas.SyrkT(mat.Lower, 1, ops[call.In[0]], 0, ops[call.Out])
		} else {
			blas.Syrk(mat.Lower, 1, ops[call.In[0]], 0, ops[call.Out])
		}
	case kernels.Symm:
		blas.Symm(mat.Lower, 1, ops[call.In[0]], ops[call.In[1]], 0, ops[call.Out])
	case kernels.Tri2Full:
		blas.Tri2Full(mat.Lower, ops[call.Out])
	case kernels.Potrf:
		if err := blas.Potrf(ops[call.Out]); err != nil {
			panic(fmt.Sprintf("exec: %v (operand %q must be SPD)", err, call.Out))
		}
	case kernels.Trsm:
		blas.Trsm(mat.Lower, call.TransA, 1, ops[call.In[0]], ops[call.Out])
	case kernels.AddSym:
		blas.AddSym(mat.Lower, ops[call.Out], ops[call.In[1]])
	default:
		panic(fmt.Sprintf("exec: dispatch of unknown kind %v", call.Kind))
	}
}

// testInstance builds a small, well-formed instance for an expression.
func testInstance(arity int) expr.Instance {
	inst := make(expr.Instance, arity)
	for i := range inst {
		inst[i] = 13 + 5*i
	}
	return inst
}

// testInputs materialises random inputs (SPD where required) for an
// algorithm.
func testInputs(alg *expr.Algorithm, rng *xrand.Rand) map[string]*mat.Dense {
	spd := make(map[string]bool, len(alg.SPDInputs))
	for _, id := range alg.SPDInputs {
		spd[id] = true
	}
	inputs := make(map[string]*mat.Dense, len(alg.Inputs))
	for _, id := range alg.Inputs {
		sh := alg.Shapes[id]
		if spd[id] {
			inputs[id] = mat.NewSPDRandom(sh.Rows, rng)
		} else {
			inputs[id] = mat.NewRandom(sh.Rows, sh.Cols, rng)
		}
	}
	return inputs
}

func TestPlanVsMapEquivalenceAllExpressions(t *testing.T) {
	// The plan path (index-resolved operands, bound closures, shared
	// arena) must produce bit-identical results to the map path for
	// every algorithm of every registered expression.
	rng := xrand.New(0x417a)
	for _, name := range expr.Names() {
		ex, err := expr.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		algs := ex.Algorithms(testInstance(ex.Arity()))
		for i := range algs {
			alg := &algs[i]
			inputs := testInputs(alg, rng)
			want := evaluateWithMap(alg, inputs)
			got := EvaluateAlgorithm(alg, inputs)
			if !mat.Equal(got, want) {
				t.Errorf("%s algorithm %d (%s): plan and map evaluation disagree (max diff %g)",
					name, alg.Index, alg.Name, mat.MaxAbsDiff(got, want))
			}
		}
	}
}

func TestEvaluateAlgorithmDoesNotMutateInputs(t *testing.T) {
	// The plan path copies inputs into the arena, so even in-place
	// algorithm steps (POTRF, TRSM) must leave the caller's matrices
	// untouched.
	rng := xrand.New(0x417b)
	algs := expr.NewLstSq().Algorithms(expr.Instance{20, 14, 6})
	for i := range algs {
		inputs := testInputs(&algs[i], rng)
		saved := make(map[string]*mat.Dense, len(inputs))
		for id, m := range inputs {
			saved[id] = m.Clone()
		}
		EvaluateAlgorithm(&algs[i], inputs)
		for id, m := range inputs {
			if !mat.Equal(m, saved[id]) {
				t.Fatalf("algorithm %d mutated input %q", i+1, id)
			}
		}
	}
}

func TestMeasuredTimeAlgorithmZeroAllocs(t *testing.T) {
	// The tentpole guarantee: after the plan is compiled (first
	// repetition), a timing repetition performs zero heap allocations —
	// in particular nothing allocates between the cache flush and the
	// first kernel call. Runs with a single worker: the parallel fan-out
	// necessarily allocates goroutine state.
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(1))
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	for _, tc := range []struct {
		name string
		algs []expr.Algorithm
	}{
		{"chain", expr.NewChainABCD().Algorithms(expr.Instance{24, 16, 20, 12, 8})},
		{"aatb", expr.NewAATB().Algorithms(expr.Instance{24, 16, 8})},
		{"lstsq", expr.NewLstSq().Algorithms(expr.Instance{32, 16, 8})},
	} {
		for i := range tc.algs {
			alg := &tc.algs[i]
			e.TimeAlgorithm(alg, 0) // compile the plan, warm the pools
			allocs := testing.AllocsPerRun(10, func() {
				e.TimeAlgorithm(alg, 1)
			})
			if allocs != 0 {
				t.Errorf("%s algorithm %d (%s): %v allocs per repetition, want 0",
					tc.name, alg.Index, alg.Name, allocs)
			}
		}
	}
}

func TestMeasuredTimeCallColdZeroAllocs(t *testing.T) {
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(1))
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	for _, call := range []kernels.Call{
		kernels.NewGemm(32, 24, 16, "A", "B", "C", false, false),
		kernels.NewSyrk(24, 16, "A", "C"),
		kernels.NewSyrkT(24, 16, "A", "C"),
		kernels.NewSymm(24, 16, "A", "B", "C"),
		kernels.NewTri2Full(24, "C"),
		kernels.NewPotrf(24, "S"),
		kernels.NewTrsm(24, 16, "L", "B", true),
		kernels.NewAddSym(24, "C", "A"),
	} {
		e.TimeCallCold(call, 0) // compile the single-call plan
		allocs := testing.AllocsPerRun(10, func() {
			e.TimeCallCold(call, 1)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per repetition, want 0", call, allocs)
		}
	}
}

// TestMeasuredPlanSwitchZeroAllocs pins the measured executor's one
// plan per timing method: each method holds only the plan of the
// measurement it timed last, switching from A to B and back to A
// compiles a new plan at every switch, a repetition of the measurement
// in progress allocates nothing, and calls with equal MemoKeys share
// one plan.
func TestMeasuredPlanSwitchZeroAllocs(t *testing.T) {
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(1))
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	algs := expr.NewAATB().Algorithms(expr.Instance{24, 16, 8})
	a, b := &algs[0], &algs[1]
	gemm := kernels.NewGemm(32, 24, 16, "A", "B", "C", false, false)
	syrk := kernels.NewSyrk(24, 16, "A", "C")
	for _, m := range []struct {
		name string
		rep  [2]func() // one repetition of measurement A, of B
		key  [2]any    // the key each measurement's plan is held under
		held func() (key, plan any)
	}{
		{"TimeAlgorithm",
			[2]func(){func() { e.TimeAlgorithm(a, 1) }, func() { e.TimeAlgorithm(b, 1) }},
			[2]any{a, b},
			func() (any, any) { return e.algKey, e.algPlan }},
		{"TimeCallCold",
			[2]func(){func() { e.TimeCallCold(gemm, 1) }, func() { e.TimeCallCold(syrk, 1) }},
			[2]any{gemm.MemoKey(), syrk.MemoKey()},
			func() (any, any) { return e.callKey, e.callPlan }},
	} {
		var plans []any
		for step, x := range []int{0, 1, 0} {
			label := fmt.Sprintf("%s, step %d (%c)", m.name, step, "AB"[x])
			m.rep[x]()
			key, plan := m.held()
			if key != m.key[x] {
				t.Errorf("%s: holds the plan of another measurement", label)
			}
			for _, old := range plans {
				if plan == old {
					t.Errorf("%s: the switch reused an earlier plan", label)
				}
			}
			plans = append(plans, plan)
			if allocs := testing.AllocsPerRun(10, m.rep[x]); allocs != 0 {
				t.Errorf("%s: %v allocs per repetition, want 0", label, allocs)
			}
			if _, again := m.held(); again != plan {
				t.Errorf("%s: a repetition recompiled the plan", label)
			}
		}
	}
	// Operand IDs do not change the call's MemoKey, so they keep its plan.
	held := e.callPlan
	e.TimeCallCold(kernels.NewGemm(32, 24, 16, "P", "Q", "R", false, false), 1)
	if e.callPlan != held {
		t.Error("a call with an equal MemoKey compiled a plan of its own")
	}
}

func TestCompileCallPlanAllKinds(t *testing.T) {
	// Every kernel kind must compile into a runnable single-call plan
	// whose operands match the call's metadata.
	rng := xrand.New(0x417c)
	for _, call := range []kernels.Call{
		kernels.NewGemm(10, 12, 14, "A", "B", "C", false, false),
		kernels.NewGemm(10, 12, 14, "A", "B", "C", true, true),
		kernels.NewSyrk(10, 14, "A", "C"),
		kernels.NewSyrkT(10, 14, "A", "C"),
		kernels.NewSymm(10, 12, "A", "B", "C"),
		kernels.NewTri2Full(10, "C"),
		kernels.NewPotrf(10, "S"),
		kernels.NewTrsm(10, 12, "L", "B", false),
		kernels.NewAddSym(10, "C", "A"),
	} {
		p, err := CompileCallPlan(call)
		if err != nil {
			t.Fatalf("%s: %v", call, err)
		}
		for _, sp := range call.Operands() {
			op := p.Operand(sp.ID)
			if op == nil {
				t.Fatalf("%s: missing operand %q", call, sp.ID)
			}
			if op.Rows != sp.Rows || op.Cols != sp.Cols {
				t.Fatalf("%s: operand %q is %dx%d, want %dx%d",
					call, sp.ID, op.Rows, op.Cols, sp.Rows, sp.Cols)
			}
		}
		p.FillInputs(rng)
		p.Execute() // must not panic (POTRF needs its SPD fill, TRSM its factor)
	}
}

// TestCompileCallPlanRejectsMalformedCalls pins that a call Validate
// rejects fails to compile with an error rather than a panic in the
// binder: SYMM must read two inputs, Tri2Full must mirror in place, and
// a GEMM needs dimensions. An algorithm without calls does not compile
// either.
func TestCompileCallPlanRejectsMalformedCalls(t *testing.T) {
	if _, err := CompilePlan(&expr.Algorithm{Name: "empty"}); err == nil {
		t.Error("CompilePlan accepted an algorithm without calls")
	}
	for _, call := range []kernels.Call{
		{Kind: kernels.Symm, M: 4, N: 4, K: 4, In: []string{"A"}, Out: "C"},
		{Kind: kernels.Tri2Full, M: 4, N: 4, Out: "C"},
		{Kind: kernels.Gemm},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: CompileCallPlan panicked: %v", call, r)
				}
			}()
			if _, err := CompileCallPlan(call); err == nil {
				t.Errorf("%s: CompileCallPlan accepted a malformed call", call)
			}
		}()
	}
}

// TestKernelTableComplete checks every row of the kernel table and of
// the binder table: a kind with a missing row fails here, not in a
// serving process. Each binder runs the kind's canonical call in a
// single-call plan.
func TestKernelTableComplete(t *testing.T) {
	for kind := kernels.Kind(0); int(kind) < kernels.NumKinds; kind++ {
		name := kind.String()
		if back, err := kernels.ParseKind(name); name == "" || err != nil || back != kind {
			t.Errorf("kind %d: name %q does not round-trip (%v, %v)", int(kind), name, back, err)
		}
		call := kind.Canonical(10, 12, 14)
		if call.Kind != kind {
			t.Fatalf("%v: canonical call has kind %v", kind, call.Kind)
		}
		if err := call.Validate(); err != nil {
			t.Errorf("%v: canonical call %s: %v", kind, call, err)
		}
		if len(call.Operands()) == 0 {
			t.Errorf("%v: no operands", kind)
		}
		in, out := call.Touches()
		if out <= 0 {
			t.Errorf("%v: output touch %v", kind, out)
		}
		for i := range call.In {
			if in[i] <= 0 {
				t.Errorf("%v: input %d touch %v", kind, i, in[i])
			}
		}
		if binders[kind] == nil {
			t.Errorf("%v: no binder", kind)
			continue
		}
		p, err := CompileCallPlan(call)
		if err != nil {
			t.Errorf("%v: %v", kind, err)
			continue
		}
		if o := bind(call, p.lay, p.ops); o.out == nil || (len(call.In) > 0 && o.a == nil) {
			t.Errorf("%v: bind resolved no operands: %+v", kind, o)
		}
		p.FillInputs(xrand.New(0x7ab1e))
		p.Execute()
	}
}

func TestPlanArenaSlotReuse(t *testing.T) {
	// The arena layout must never exceed the no-reuse total, and across
	// the registered expressions at least one algorithm must genuinely
	// share slots between temporaries with disjoint live ranges.
	reused := false
	for _, name := range expr.Names() {
		ex, err := expr.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		algs := ex.Algorithms(testInstance(ex.Arity()))
		for i := range algs {
			p, err := CompilePlan(&algs[i])
			if err != nil {
				t.Fatalf("%s algorithm %d: %v", name, i+1, err)
			}
			operandLen := 0 // the arena length without slot reuse
			for _, size := range p.lay.sizes {
				operandLen += size
			}
			if len(p.arena) > operandLen {
				t.Errorf("%s algorithm %d: arena %d floats exceeds no-reuse total %d",
					name, i+1, len(p.arena), operandLen)
			}
			if len(p.arena) < operandLen {
				reused = true
			}
		}
	}
	if !reused {
		t.Error("no algorithm shares arena slots; liveness reuse is not happening")
	}
}

func TestLayoutArena(t *testing.T) {
	// Synthetic interval sets pin the first-fit allocator: a freed slot
	// is reused by a later-born operand, adjacent free blocks merge, and
	// an oversized request falls through to fresh space.
	t.Run("reuse", func(t *testing.T) {
		// op0 dies after step 0; op1 (smaller) reuses its space; op2 does
		// not fit the remaining hole and extends the arena.
		offsets, arenaLen := layoutArena(3,
			[]int{0, 1, 2}, []int{0, 2, 2}, []int{100, 50, 100})
		if offsets[0] != 0 || offsets[1] != 0 || offsets[2] != 100 {
			t.Fatalf("offsets = %v, want [0 0 100]", offsets)
		}
		if arenaLen != 200 {
			t.Fatalf("arenaLen = %d, want 200", arenaLen)
		}
	})
	t.Run("merge", func(t *testing.T) {
		// Two adjacent freed blocks merge to fit one big operand.
		offsets, arenaLen := layoutArena(2,
			[]int{0, 0, 1}, []int{0, 0, 1}, []int{30, 70, 100})
		if offsets[2] != 0 {
			t.Fatalf("offsets = %v, want op2 at 0", offsets)
		}
		if arenaLen != 100 {
			t.Fatalf("arenaLen = %d, want 100", arenaLen)
		}
	})
	t.Run("persistent", func(t *testing.T) {
		// Operands live to the sentinel step never release their slots.
		offsets, arenaLen := layoutArena(2,
			[]int{0, 0}, []int{2, 2}, []int{10, 20})
		if offsets[0] == offsets[1] {
			t.Fatalf("persistent operands share offset %d", offsets[0])
		}
		if arenaLen != 30 {
			t.Fatalf("arenaLen = %d, want 30", arenaLen)
		}
	})
}

func TestPlanTimesReuseAndOrdering(t *testing.T) {
	// ExecuteTimed reuses one buffer; the executor contract says the
	// caller consumes it before the next repetition.
	e := NewMeasured()
	e.FlushBytes = 1 << 20
	algs := expr.NewAATB().Algorithms(expr.Instance{24, 16, 8})
	alg := &algs[0]
	t1 := e.TimeAlgorithm(alg, 0)
	if len(t1) != len(alg.Calls) {
		t.Fatalf("got %d times for %d calls", len(t1), len(alg.Calls))
	}
	for i, v := range t1 {
		if v <= 0 {
			t.Fatalf("call %d: non-positive time %v", i, v)
		}
	}
	t2 := e.TimeAlgorithm(alg, 1)
	if &t1[0] != &t2[0] {
		t.Error("plan timing buffer not reused across repetitions")
	}
}
