package exec

// This file implements the one compiled plan type. Compilation has two
// stages: an expr.Algorithm's layout — operand IDs resolved to indices
// into a flat operand table, and every temporary placed into one arena
// buffer with liveness-based slot reuse — and the Plan, which carves
// the operand headers out of an arena and binds each call to its serial
// kernel and its concrete matrices, so that running a repetition
// performs no map lookups, no dispatch switches, and no heap
// allocations. The Measured executor, the isolated-call benchmark,
// EvaluateAlgorithm and the engine's compute path all execute through
// a Plan.

import (
	"fmt"
	"sort"
	"time"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// Plan is a compiled algorithm over one instance, bound to the serial
// kernels. Compile once, execute many times. A Plan is not safe for
// concurrent use (its operands and timing buffer are shared state).
type Plan struct {
	lay *Layout
	// lender is the Slab the arena and the SPD fill scratch are cut
	// from, nil for a plan that allocated its own; Release gives it back.
	lender     *Slab
	arena      []float64
	spdScratch []float64
	// ops are the operand headers, in the layout's operand order, and
	// steps[s] runs call s on them.
	ops   []mat.Dense
	steps []step
	times []float64
}

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
	p := &Plan{}
	p.compile(lay, nil)
	return p, nil
}

// compile carves the plan's operand headers out of an arena laid out
// as lay and binds every call to its serial kernel. The arena comes
// from slab when one is given, unzeroed (operands are written before
// they are read), and is allocated for the plan alone otherwise. The
// header slices are reused when they are long enough, so a slab's plan
// compiles without allocating once it has compiled a plan as large.
func (p *Plan) compile(lay *Layout, slab *Slab) {
	n := lay.arenaLen
	var buf []float64
	if slab != nil {
		buf = slab.lend(n + lay.scratchLen)
	} else {
		buf = poisonArena(make([]float64, n+lay.scratchLen))
	}
	p.lay, p.lender = lay, slab
	p.arena, p.spdScratch = buf[:n:n], buf[n:]
	p.ops = resize(p.ops, len(lay.order))
	for i, id := range lay.order {
		sh := lay.alg.Shapes[id]
		off := lay.offsets[i]
		p.ops[i] = mat.Dense{Rows: sh.Rows, Cols: sh.Cols, Stride: max(sh.Rows, 1), Data: p.arena[off : off+lay.sizes[i]]}
	}
	calls := lay.alg.Calls
	p.steps = resize(p.steps, len(calls))
	for s, c := range calls {
		p.steps[s] = step{binders[c.Kind], bind(c, lay, p.ops)}
	}
	p.times = resize(p.times, len(calls))
}

// resize returns s with length n, reusing its array when it is long
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	p := &Plan{}
	p.compile(lay, nil)
	return p, nil
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

// FillInputs refills the input operands in place from rng, in the
// algorithm's declared input order. It performs no heap allocations:
// the SPD scratch buffer was sized at compile time.
func (p *Plan) FillInputs(rng *xrand.Rand) {
	p.live()
	for _, f := range p.lay.fills {
		fillOperand(&p.ops[f.idx], f.kind, p.spdScratch, rng)
	}
}

// Execute runs the call sequence once. It performs no heap allocations
// (the kernels' packing buffers are pooled; parallel kernel paths may
// still spawn goroutines on multi-core hosts).
func (p *Plan) Execute() {
	p.live()
	for _, st := range p.steps {
		st.run(st.o)
	}
}

// ExecuteTimed runs the sequence, timing each call with the monotonic
// clock. The returned slice is owned by the plan and reused by the next
// ExecuteTimed; it performs no heap allocations.
func (p *Plan) ExecuteTimed() []float64 {
	p.live()
	for s, st := range p.steps {
		start := time.Now()
		st.run(st.o)
		p.times[s] = time.Since(start).Seconds()
	}
	return p.times
}

// Release ends the plan: a plan compiled into a Slab gives the slab
// back, so the next plan may be compiled into it. The plan is unusable
// afterwards — filling, executing or reading it panics instead of
// touching an arena another plan now owns — until its slab compiles
// into it again, and operand matrices obtained from it before must not
// be used either. Releasing twice is a no-op. A plan that allocated its
// own arena needs no Release: the collector frees it with the plan.
func (p *Plan) Release() {
	if p.lay == nil {
		return
	}
	if p.lender != nil {
		p.lender.lent = false
	}
	clear(p.ops) // drop the arena references; the slices stay for reuse
	p.lay, p.lender, p.arena, p.spdScratch = nil, nil, nil, nil
}

// live panics if the plan has been released.
func (p *Plan) live() {
	if p.lay == nil {
		panic("exec: use of a released plan")
	}
}

// Operand returns the arena-backed matrix for the given operand ID, or
// nil if the plan has no such operand.
func (p *Plan) Operand(id string) *mat.Dense {
	p.live()
	if i, ok := p.lay.index[id]; ok {
		return &p.ops[i]
	}
	return nil
}

// Output returns the arena-backed result operand.
func (p *Plan) Output() *mat.Dense {
	p.live()
	return &p.ops[p.lay.output]
}
