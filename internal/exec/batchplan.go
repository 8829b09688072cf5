package exec

// This file implements the one compiled plan type: a BatchPlan is an
// algorithm compiled over N per-instance layouts in one slab arena.
// Each instance's operands sit at a fixed offset from its slab base;
// slabs are padded to a common, cache-line-aligned stride. The compiler
// picks the binding from its input:
//
//   - one instance (a Plan): every call binds to the serial kernels;
//   - N instances of one bound algorithm: every call binds to one
//     batched BLAS driver (blas.GemmBatch and friends) that strides
//     through all N slabs with shared packing buffers, amortising the
//     fixed per-dispatch costs that dominate small problems;
//   - different instances of one algorithm family (same call structure,
//     shapes free): each instance binds its own serial closures, laid
//     out by its own layout within its padded slab.
//
// Execution is step-major — call s runs across all instances before
// call s+1 — and fills consume the deterministic stream instance-major,
// exactly the stream N consecutive single-instance plans would consume.
// Every instance executes the same kernel arithmetic a single-instance
// plan runs on the same data, so results are bitwise identical to
// per-instance sequential execution.

import (
	"fmt"
	"time"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// batchAlign is the instance-stride alignment in float64s (64 bytes), so
// every instance's slab starts on a cache-line boundary.
const batchAlign = 8

// slabStride rounds an instance arena length up to the batch alignment:
// the stride between consecutive instance slabs (never zero).
func slabStride(arenaLen int) int {
	return max((arenaLen+batchAlign-1)&^(batchAlign-1), batchAlign)
}

// BatchPlan is a compiled algorithm over count instances. Compile once,
// execute many times. A BatchPlan is not safe for concurrent use (its
// operands and timing buffer are shared state).
type BatchPlan struct {
	stride int // instance slab stride in float64s
	arena  []float64
	insts  []planInstance
	// steps[s] runs call s across every instance: one batched closure,
	// or one serial closure per instance.
	steps      [][]func()
	spdScratch []float64
	times      []float64
}

// planInstance is one instance of a plan: its layout (shared between
// the instances of a homogeneous plan) and its operand headers, carved
// out of the arena at its slab base plus the layout's offsets.
type planInstance struct {
	lay *planLayout
	ops []mat.Dense
}

// CompileBatchPlan lowers the algorithm into a BatchPlan over count
// same-shape instances bound to the batched drivers. Compilation
// allocates everything an execution will ever need, so Execute and
// ExecuteTimed are allocation-free afterwards.
func CompileBatchPlan(alg *expr.Algorithm, count int) (*BatchPlan, error) {
	if count < 1 {
		return nil, fmt.Errorf("exec: batch plan needs count >= 1, got %d", count)
	}
	algs := make([]*expr.Algorithm, count)
	for i := range algs {
		algs[i] = alg
	}
	p := &BatchPlan{}
	if err := p.compile(algs); err != nil {
		return nil, err
	}
	return p, nil
}

// CompileBatchPlanMixed lowers one algorithm family bound at mixed
// instances into one fused plan. Every element must be the same
// algorithm of the same expression (same call structure: count, kinds,
// transposes, operand IDs) bound at its own instance; shapes may differ
// freely.
func CompileBatchPlanMixed(algs []*expr.Algorithm) (*BatchPlan, error) {
	p := &BatchPlan{}
	if err := p.compile(algs); err != nil {
		return nil, err
	}
	return p, nil
}

// compile is the plan compiler: it lays out one instance per element of
// algs, carves their operand headers out of one slab arena, and binds
// the calls — to the batched drivers when every element is the same
// bound algorithm and there is more than one, to per-instance serial
// kernels otherwise.
func (p *BatchPlan) compile(algs []*expr.Algorithm) error {
	count := len(algs)
	if count < 1 {
		return fmt.Errorf("exec: batch plan needs at least one instance")
	}
	homog := true
	p.insts = make([]planInstance, count)
	arenaLen, scratchLen := 0, 0
	for i, alg := range algs {
		if i > 0 && alg == algs[i-1] {
			p.insts[i].lay = p.insts[i-1].lay
			continue
		}
		if i > 0 {
			homog = false
			if err := sameCallStructure(algs[0], alg); err != nil {
				return fmt.Errorf("exec: mixed batch instance %d: %w", i, err)
			}
		}
		lay, err := compileLayout(alg)
		if err != nil {
			return err
		}
		p.insts[i].lay = lay
		arenaLen = max(arenaLen, lay.arenaLen)
		scratchLen = max(scratchLen, lay.scratchLen)
	}
	// A single instance has no neighbour slab to align, so its arena is
	// exactly its layout.
	p.stride = arenaLen
	if count > 1 {
		p.stride = slabStride(arenaLen)
	}
	p.arena = make([]float64, p.stride*count)
	p.spdScratch = make([]float64, scratchLen)
	for inst := range p.insts {
		pi := &p.insts[inst]
		pi.ops = carveOperands(algs[inst], pi.lay, p.arena[inst*p.stride:], false)
	}

	nsteps := len(algs[0].Calls)
	p.steps = make([][]func(), nsteps)
	p.times = make([]float64, nsteps)
	if homog && count > 1 {
		// Batch-base headers: instance 0's operands with open-ended data,
		// so the batched drivers can stride forward through the slab.
		lay := p.insts[0].lay
		bases := carveOperands(algs[0], lay, p.arena, true)
		get := func(id string) *mat.Dense { return &bases[lay.index[id]] }
		for s, c := range algs[0].Calls {
			run, err := bindBatchCall(c, get, p.stride, count)
			if err != nil {
				return err
			}
			p.steps[s] = []func(){run}
		}
		return nil
	}
	for s := range p.steps {
		p.steps[s] = make([]func(), count)
	}
	for inst := range p.insts {
		pi := &p.insts[inst]
		get := func(id string) *mat.Dense { return &pi.ops[pi.lay.index[id]] }
		for s, c := range algs[inst].Calls {
			run, err := bindCall(c, get)
			if err != nil {
				return err
			}
			p.steps[s][inst] = run
		}
	}
	return nil
}

// carveOperands returns the operand headers of one instance whose slab
// starts at slab[0], in the layout's operand order. Open-ended headers
// keep the rest of the slab in their Data, for the batched drivers.
func carveOperands(alg *expr.Algorithm, lay *planLayout, slab []float64, openEnded bool) []mat.Dense {
	ops := make([]mat.Dense, len(lay.order))
	for i, id := range lay.order {
		sh := alg.Shapes[id]
		data := slab[lay.offsets[i]:]
		if !openEnded {
			data = data[:lay.sizes[i]]
		}
		ops[i] = mat.Dense{Rows: sh.Rows, Cols: sh.Cols, Stride: max(sh.Rows, 1), Data: data}
	}
	return ops
}

// sameCallStructure checks that two bound algorithms share one call
// structure — the same algorithm of the same expression at different
// instances. Kinds, transposes, and operand IDs must agree; dimensions
// are the instances' own business.
func sameCallStructure(a, b *expr.Algorithm) error {
	if len(a.Calls) != len(b.Calls) {
		return fmt.Errorf("call counts differ (%d vs %d)", len(a.Calls), len(b.Calls))
	}
	for s := range a.Calls {
		ca, cb := a.Calls[s], b.Calls[s]
		if ca.Kind != cb.Kind || ca.TransA != cb.TransA || ca.TransB != cb.TransB ||
			ca.Out != cb.Out || len(ca.In) != len(cb.In) {
			return fmt.Errorf("call %d differs (%s vs %s)", s, ca.String(), cb.String())
		}
		for i := range ca.In {
			if ca.In[i] != cb.In[i] {
				return fmt.Errorf("call %d operand %d differs (%s vs %s)", s, i, ca.In[i], cb.In[i])
			}
		}
	}
	return nil
}

// bindBatchCall resolves the call's operands to their batch-base headers
// and returns a closure that executes it on the batched BLAS drivers,
// all operands advancing at the plan's instance stride. Per-instance
// semantics match bindCall exactly.
func bindBatchCall(c kernels.Call, get func(string) *mat.Dense, stride, count int) (func(), error) {
	switch c.Kind {
	case kernels.Gemm:
		a, b, out := get(c.In[0]), get(c.In[1]), get(c.Out)
		tA, tB := c.TransA, c.TransB
		return func() { blas.GemmBatch(tA, tB, 1, a, stride, b, stride, 0, out, stride, count) }, nil
	case kernels.Syrk:
		a, out := get(c.In[0]), get(c.Out)
		trans := c.TransA
		return func() { blas.SyrkBatch(mat.Lower, trans, 1, a, stride, 0, out, stride, count) }, nil
	case kernels.Symm:
		a, b, out := get(c.In[0]), get(c.In[1]), get(c.Out)
		return func() { blas.SymmBatch(mat.Lower, 1, a, stride, b, stride, 0, out, stride, count) }, nil
	case kernels.Tri2Full:
		out := get(c.Out)
		return func() { blas.Tri2FullBatch(mat.Lower, out, stride, count) }, nil
	case kernels.Potrf:
		out := get(c.Out)
		id := c.Out
		return func() {
			if err := blas.PotrfBatch(out, stride, count); err != nil {
				panic(fmt.Sprintf("exec: %v (operand %q must be SPD)", err, id))
			}
		}, nil
	case kernels.Trsm:
		l, b := get(c.In[0]), get(c.Out)
		trans := c.TransA
		return func() { blas.TrsmBatch(mat.Lower, trans, 1, l, stride, b, stride, count) }, nil
	case kernels.AddSym:
		out, r := get(c.Out), get(c.In[1])
		return func() { blas.AddSymBatch(mat.Lower, out, stride, r, stride, count) }, nil
	default:
		return nil, fmt.Errorf("exec: cannot bind unknown kind %v", c.Kind)
	}
}

// FillInputs refills every instance's input operands in place,
// instance-major: instance 0's inputs first, then instance 1's, exactly
// the stream order N consecutive single-instance fills would consume.
// It performs no heap allocations: the SPD scratch buffer was sized at
// compile time.
func (p *BatchPlan) FillInputs(rng *xrand.Rand) {
	for inst := range p.insts {
		pi := &p.insts[inst]
		for _, f := range pi.lay.fills {
			fillOperand(&pi.ops[f.idx], f.kind, p.spdScratch, rng)
		}
	}
}

// Execute runs the call sequence once, step-major: call s runs across
// all instances before call s+1. It performs no heap allocations (the
// kernels' packing buffers are pooled; parallel kernel paths may still
// spawn goroutines on multi-core hosts).
func (p *BatchPlan) Execute() {
	for _, step := range p.steps {
		for _, run := range step {
			run()
		}
	}
}

// ExecuteTimed runs the sequence, timing each step with the monotonic
// clock: times[s] covers call s of all instances. The returned slice is
// owned by the plan and reused by the next ExecuteTimed; it performs no
// heap allocations.
func (p *BatchPlan) ExecuteTimed() []float64 {
	for s, step := range p.steps {
		start := time.Now()
		for _, run := range step {
			run()
		}
		p.times[s] = time.Since(start).Seconds()
	}
	return p.times
}

// Count returns the number of instances.
func (p *BatchPlan) Count() int { return len(p.insts) }

// Stride returns the per-instance slab stride in float64s.
func (p *BatchPlan) Stride() int { return p.stride }

// ArenaLen returns the length in float64s of the whole arena.
func (p *BatchPlan) ArenaLen() int { return len(p.arena) }

// SetInput copies src into instance inst's named operand slot. It panics
// if the operand is unknown or the shapes disagree.
func (p *BatchPlan) SetInput(inst int, id string, src *mat.Dense) {
	dst := p.Operand(inst, id)
	if dst == nil {
		panic(fmt.Sprintf("exec: plan has no operand %q", id))
	}
	if src.Rows != dst.Rows || src.Cols != dst.Cols {
		panic(fmt.Sprintf("exec: input %q is %dx%d, algorithm expects %dx%d",
			id, src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	mat.Copy(dst, src)
}

// Operand returns instance inst's arena-backed matrix for the given
// operand ID, or nil if that instance has no such operand.
func (p *BatchPlan) Operand(inst int, id string) *mat.Dense {
	pi := &p.insts[inst]
	if i, ok := pi.lay.index[id]; ok {
		return &pi.ops[i]
	}
	return nil
}

// Output returns instance inst's arena-backed result operand.
func (p *BatchPlan) Output(inst int) *mat.Dense {
	pi := &p.insts[inst]
	return &pi.ops[pi.lay.output]
}
