package exec

// This file implements the per-instance stage of plan compilation: an
// expr.Algorithm's layout — operand IDs resolved to indices into a flat
// operand table, and every temporary placed into one arena buffer with
// liveness-based slot reuse — and the binding of each call to its
// kernel and its concrete matrices, so that running a repetition
// performs no map lookups, no dispatch switches, and no heap
// allocations. Plan, the
// single-instance BatchPlan, is what the Measured executor, the
// isolated-call benchmark, and EvaluateAlgorithm execute through.

import (
	"fmt"
	"sort"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// Plan is a compiled algorithm over one instance: a BatchPlan of one,
// bound to the serial kernels, with instance-free accessors. Compile
// once, execute many times; like BatchPlan it is not safe for
// concurrent use.
type Plan struct{ BatchPlan }

// planFill records how one input slot is refilled before a repetition.
type planFill struct {
	idx  int
	kind kernels.FillKind
}

// Layout is the shape-level stage of plan compilation: one bound
// algorithm's operand table, liveness, arena offsets, and input-refill
// recipe. It holds no storage — only where everything goes — and is
// read-only once built, so one Layout may serve any number of plans,
// concurrently compiled or not (the engine keeps one per selected
// algorithm of a bound set).
type Layout struct {
	alg        *expr.Algorithm
	order      []string
	index      map[string]int
	offsets    []int
	sizes      []int
	arenaLen   int
	operandLen int
	output     int
	fills      []planFill
	scratchLen int
}

// NewLayout validates the algorithm and computes its plan layout. The
// layout keeps alg: a plan compiled from it binds alg's calls.
func NewLayout(alg *expr.Algorithm) (*Layout, error) {
	if err := alg.Validate(); err != nil {
		return nil, err
	}
	lay := &Layout{alg: alg, index: make(map[string]int, len(alg.Shapes))}

	// Operand discovery in deterministic first-mention order.
	mention := func(id string) {
		if _, ok := lay.index[id]; !ok {
			lay.index[id] = len(lay.order)
			lay.order = append(lay.order, id)
		}
	}
	for _, c := range alg.Calls {
		for _, id := range c.In {
			mention(id)
		}
		mention(c.Out)
	}
	// Shapes can name operands no call mentions; give them slots too so
	// Operand() works for everything in the table.
	rest := make([]string, 0)
	for id := range alg.Shapes {
		if _, ok := lay.index[id]; !ok {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	for _, id := range rest {
		mention(id)
	}
	lay.output = lay.index[alg.Output]

	// Liveness: a temporary is live from the first step that mentions it
	// to the last. Inputs are refilled in place before every repetition
	// and the output is the result, so both get dedicated slots (live for
	// the whole sequence).
	n := len(lay.order)
	nsteps := len(alg.Calls)
	first := make([]int, n)
	last := make([]int, n)
	for i := range first {
		first[i], last[i] = nsteps, -1
	}
	touch := func(id string, s int) {
		i := lay.index[id]
		if s < first[i] {
			first[i] = s
		}
		if s > last[i] {
			last[i] = s
		}
	}
	for s, c := range alg.Calls {
		for _, id := range c.In {
			touch(id, s)
		}
		touch(c.Out, s)
	}
	persistent := make([]bool, n)
	for _, id := range alg.Inputs {
		if i, ok := lay.index[id]; ok {
			persistent[i] = true
		}
	}
	persistent[lay.output] = true
	for i := range persistent {
		if persistent[i] || last[i] < 0 {
			first[i], last[i] = 0, nsteps
		}
	}

	// Arena layout: a linear-scan first-fit allocator over the liveness
	// intervals. Slots whose intervals are disjoint share storage.
	lay.sizes = make([]int, n)
	for i, id := range lay.order {
		sh := alg.Shapes[id]
		lay.sizes[i] = max(sh.Rows, 1) * sh.Cols
		lay.operandLen += lay.sizes[i]
	}
	lay.offsets, lay.arenaLen = layoutArena(nsteps, first, last, lay.sizes)

	// Input refills, in the algorithm's declared input order.
	spd := make(map[string]bool, len(alg.SPDInputs))
	for _, id := range alg.SPDInputs {
		spd[id] = true
	}
	for _, id := range alg.Inputs {
		i, ok := lay.index[id]
		if !ok {
			continue
		}
		kind := kernels.FillRandom
		if spd[id] {
			kind = kernels.FillSPD
			sh := alg.Shapes[id]
			if s := sh.Rows * sh.Rows; s > lay.scratchLen {
				lay.scratchLen = s
			}
		}
		lay.fills = append(lay.fills, planFill{idx: i, kind: kind})
	}
	return lay, nil
}

// CompilePlan lowers the algorithm into a Plan. The algorithm is
// validated first; compilation allocates everything an execution will
// ever need, so Execute and ExecuteTimed are allocation-free afterwards.
func CompilePlan(alg *expr.Algorithm) (*Plan, error) {
	lay, err := NewLayout(alg)
	if err != nil {
		return nil, err
	}
	return compileLayout(lay)
}

// compileLayout compiles the Plan of one laid-out instance.
func compileLayout(lay *Layout) (*Plan, error) {
	p := &Plan{}
	if err := p.compile([]*Layout{lay}, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// CompileCallPlan compiles a single-call plan for isolated benchmarking:
// every operand (including the output, matching a fresh-operand run) is
// refilled per repetition according to the call's operand metadata.
func CompileCallPlan(call kernels.Call) (*Plan, error) {
	if err := call.Validate(); err != nil {
		return nil, err
	}
	specs := call.Operands()
	alg := &expr.Algorithm{
		Name:   call.String(),
		Calls:  []kernels.Call{call},
		Shapes: make(map[string]expr.Shape, len(specs)),
		Output: call.Out,
	}
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		alg.Shapes[sp.ID] = expr.Shape{Rows: sp.Rows, Cols: sp.Cols}
		if seen[sp.ID] {
			continue // a call may name one operand twice (e.g. A·A): fill once
		}
		seen[sp.ID] = true
		alg.Inputs = append(alg.Inputs, sp.ID)
		if sp.Fill == kernels.FillSPD {
			alg.SPDInputs = append(alg.SPDInputs, sp.ID)
		}
	}
	lay, err := NewLayout(alg)
	if err != nil {
		return nil, err
	}
	// Patch in the fill kinds the shape table can't express (the
	// diagonally dominant triangular factor of TRSM), before any plan
	// reads the layout.
	for _, sp := range specs {
		if sp.Fill != kernels.FillDiagDominant {
			continue
		}
		for fi := range lay.fills {
			if lay.fills[fi].idx == lay.index[sp.ID] {
				lay.fills[fi].kind = kernels.FillDiagDominant
			}
		}
	}
	return compileLayout(lay)
}

// layoutArena assigns arena offsets with a first-fit free list driven by
// the liveness intervals [first, last] (in step indices): before step s
// the blocks of operands that died at step s-1 are released, then the
// operands born at step s are placed. Returns the offsets and the arena
// length in float64s.
func layoutArena(nsteps int, first, last, sizes []int) (offsets []int, arenaLen int) {
	n := len(sizes)
	offsets = make([]int, n)
	type block struct{ off, size int }
	var free []block // sorted by off, adjacent blocks merged
	release := func(off, size int) {
		at := sort.Search(len(free), func(i int) bool { return free[i].off >= off })
		free = append(free, block{})
		copy(free[at+1:], free[at:])
		free[at] = block{off, size}
		// Merge with the next block, then the previous one.
		if at+1 < len(free) && free[at].off+free[at].size == free[at+1].off {
			free[at].size += free[at+1].size
			free = append(free[:at+1], free[at+2:]...)
		}
		if at > 0 && free[at-1].off+free[at-1].size == free[at].off {
			free[at-1].size += free[at].size
			free = append(free[:at], free[at+1:]...)
		}
	}
	alloc := func(size int) int {
		for i := range free {
			if free[i].size >= size {
				off := free[i].off
				if free[i].size == size {
					free = append(free[:i], free[i+1:]...)
				} else {
					free[i].off += size
					free[i].size -= size
				}
				return off
			}
		}
		off := arenaLen
		arenaLen += size
		return off
	}
	for s := 0; s <= nsteps; s++ {
		for i := 0; i < n; i++ {
			if last[i] == s-1 && last[i] < nsteps {
				release(offsets[i], sizes[i])
			}
		}
		for i := 0; i < n; i++ {
			if first[i] == s {
				offsets[i] = alloc(sizes[i])
			}
		}
	}
	return offsets, arenaLen
}

// operands are one bound call's matrices: a and b are its first two
// inputs (nil past len(In)) and out is its output, which an in-place kind
// also finds among its inputs.
type operands struct {
	a, b, out      *mat.Dense
	transA, transB bool
	outID          string
}

// binders holds one function per kind: each runs the call on one
// instance with the serial BLAS kernels. The plan tests pin them
// against the map-based oracle.
var binders = [kernels.NumKinds]func(o operands){
	kernels.Gemm: func(o operands) { blas.Gemm(o.transA, o.transB, 1, o.a, o.b, 0, o.out) },
	kernels.Syrk: func(o operands) {
		if o.transA {
			blas.SyrkT(mat.Lower, 1, o.a, 0, o.out)
		} else {
			blas.Syrk(mat.Lower, 1, o.a, 0, o.out)
		}
	},
	kernels.Symm:     func(o operands) { blas.Symm(mat.Lower, 1, o.a, o.b, 0, o.out) },
	kernels.Tri2Full: func(o operands) { blas.Tri2Full(mat.Lower, o.out) },
	kernels.Potrf:    func(o operands) { mustBeSPD(blas.Potrf(o.out), o.outID) },
	kernels.Trsm:     func(o operands) { blas.Trsm(mat.Lower, o.transA, 1, o.a, o.out) },
	kernels.AddSym:   func(o operands) { blas.AddSym(mat.Lower, o.out, o.b) },
}

// mustBeSPD panics if the in-place Cholesky factorisation of operand id
// failed.
func mustBeSPD(err error, id string) {
	if err != nil {
		panic(fmt.Sprintf("exec: %v (operand %q must be SPD)", err, id))
	}
}

// step is one bound call of a plan: its kind's binder and the operands
// it runs on.
type step struct {
	run func(operands)
	o   operands
}

// bind resolves the call's operands to the headers ops, laid out as
// lay, once at compile time.
func bind(c kernels.Call, lay *Layout, ops []mat.Dense) operands {
	in := func(i int) *mat.Dense {
		if i < len(c.In) {
			return &ops[lay.index[c.In[i]]]
		}
		return nil
	}
	return operands{a: in(0), b: in(1), out: &ops[lay.index[c.Out]], transA: c.TransA, transB: c.TransB, outID: c.Out}
}

// fillOperand refills one operand in place according to its fill kind.
// It performs no heap allocations (the SPD scratch buffer is sized at
// compile time).
func fillOperand(m *mat.Dense, kind kernels.FillKind, spdScratch []float64, rng *xrand.Rand) {
	switch kind {
	case kernels.FillRandom:
		m.FillRandom(rng)
	case kernels.FillSPD:
		m.FillSPD(spdScratch, rng)
	case kernels.FillDiagDominant:
		m.FillRandom(rng)
		for i := 0; i < m.Rows; i++ {
			m.Data[i+i*m.Stride] = 4 + rng.Float64()
		}
	case kernels.FillZero:
		m.Zero()
	}
}

// SetInput copies src into the named operand slot. It panics if the
// operand is unknown or the shapes disagree.
func (p *Plan) SetInput(id string, src *mat.Dense) {
	dst := p.Operand(id)
	if dst == nil {
		panic(fmt.Sprintf("exec: plan has no operand %q", id))
	}
	if src.Rows != dst.Rows || src.Cols != dst.Cols {
		panic(fmt.Sprintf("exec: input %q is %dx%d, algorithm expects %dx%d",
			id, src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	mat.Copy(dst, src)
}

// Operand returns the arena-backed matrix for the given operand ID, or
// nil if the plan has no such operand.
func (p *Plan) Operand(id string) *mat.Dense { return p.BatchPlan.Operand(0, id) }

// Output returns the arena-backed result operand.
func (p *Plan) Output() *mat.Dense { return p.BatchPlan.Output(0) }

// OperandLen returns the summed operand sizes — the arena length a
// layout without liveness-based slot reuse would need. ArenaLen smaller
// than OperandLen is slot reuse at work.
func (p *Plan) OperandLen() int { return p.insts[0].lay.operandLen }
