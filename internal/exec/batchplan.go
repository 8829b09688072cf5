package exec

// This file implements the one compiled plan type: a BatchPlan is an
// algorithm compiled over N per-instance layouts in one slab arena.
// Each instance's operands sit at a fixed offset from its slab base;
// slabs are padded to a common, cache-line-aligned stride. The
// instances are one bound algorithm, repeated, or different instances
// of one algorithm family (same call structure, shapes free); either
// way each instance binds every call to the serial kernels on its own
// operands.
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

	"lamb/internal/expr"
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
	// lender is the Slab the arena and the SPD fill scratch are cut
	// from, nil for a plan that allocated its own; Release gives it back.
	lender *Slab
	arena  []float64
	insts  []planInstance
	// steps[s] runs call s across every instance, one step per instance.
	steps      [][]step
	spdScratch []float64
	times      []float64
}

// planInstance is one instance of a plan: its layout (shared between
// the instances of one bound algorithm) and its operand headers, carved
// out of the arena at its slab base plus the layout's offsets.
type planInstance struct {
	lay *Layout
	ops []mat.Dense
}

// CompileBatchPlan lowers the algorithm into a BatchPlan over count
// same-shape instances. Compilation allocates everything an execution
// will ever need, so Execute and ExecuteTimed are allocation-free
// afterwards.
func CompileBatchPlan(alg *expr.Algorithm, count int) (*BatchPlan, error) {
	if count < 1 {
		return nil, fmt.Errorf("exec: batch plan needs count >= 1, got %d", count)
	}
	lay, err := NewLayout(alg)
	if err != nil {
		return nil, err
	}
	lays := make([]*Layout, count)
	for i := range lays {
		lays[i] = lay
	}
	return newBatchPlan(lays, nil)
}

// CompileBatchPlanMixed lowers one algorithm family bound at mixed
// instances into one fused plan. Every element must be the same
// algorithm of the same expression (same call structure: count, kinds,
// transposes, operand IDs) bound at its own instance; shapes may differ
// freely. Consecutive elements that are one pointer share one layout.
func CompileBatchPlanMixed(algs []*expr.Algorithm) (*BatchPlan, error) {
	lays := make([]*Layout, len(algs))
	for i, alg := range algs {
		if i > 0 && alg == algs[i-1] {
			lays[i] = lays[i-1]
			continue
		}
		lay, err := NewLayout(alg)
		if err != nil {
			return nil, err
		}
		lays[i] = lay
	}
	return newBatchPlan(lays, nil)
}

// newBatchPlan compiles a BatchPlan over lays (see compile).
func newBatchPlan(lays []*Layout, slab *Slab) (*BatchPlan, error) {
	p := &BatchPlan{}
	if err := p.compile(lays, slab); err != nil {
		return nil, err
	}
	return p, nil
}

// compile is the plan compiler: it takes one layout per instance,
// carves their operand headers out of one arena, and binds every
// instance's calls to the serial kernels. The arena comes from slab
// when one is given, unzeroed (operands are written before they are
// read), and is allocated for the plan alone otherwise.
func (p *BatchPlan) compile(lays []*Layout, slab *Slab) error {
	count := len(lays)
	if count < 1 {
		return fmt.Errorf("exec: batch plan needs at least one instance")
	}
	p.insts = make([]planInstance, count)
	arenaLen, scratchLen := 0, 0
	for i, lay := range lays {
		p.insts[i].lay = lay
		if i > 0 && lay == lays[i-1] {
			continue
		}
		if i > 0 {
			if err := sameCallStructure(lays[0].alg, lay.alg); err != nil {
				return fmt.Errorf("exec: mixed batch instance %d: %w", i, err)
			}
		}
		arenaLen = max(arenaLen, lay.arenaLen)
		scratchLen = max(scratchLen, lay.scratchLen)
	}
	// A single instance has no neighbour slab to align, so its arena is
	// exactly its layout.
	p.stride = arenaLen
	if count > 1 {
		p.stride = slabStride(arenaLen)
	}
	n := p.stride * count
	var buf []float64
	if slab != nil {
		buf = slab.lend(n + scratchLen)
		p.lender = slab
	} else {
		buf = poisonArena(make([]float64, n+scratchLen))
	}
	p.arena = buf[:n:n]
	p.spdScratch = buf[n:]
	for inst := range p.insts {
		pi := &p.insts[inst]
		pi.ops = carveOperands(pi.lay, p.arena[inst*p.stride:])
	}

	calls := lays[0].alg.Calls
	p.steps = make([][]step, len(calls))
	p.times = make([]float64, len(calls))
	steps := make([]step, len(calls)*count)
	for s := range p.steps {
		p.steps[s] = steps[s*count : (s+1)*count : (s+1)*count]
	}
	for inst := range p.insts {
		pi := &p.insts[inst]
		for s, c := range pi.lay.alg.Calls {
			p.steps[s][inst] = step{binders[c.Kind], bind(c, pi.lay, pi.ops)}
		}
	}
	return nil
}

// carveOperands returns the operand headers of one instance whose slab
// starts at slab[0], in the layout's operand order.
func carveOperands(lay *Layout, slab []float64) []mat.Dense {
	ops := make([]mat.Dense, len(lay.order))
	for i, id := range lay.order {
		sh := lay.alg.Shapes[id]
		off := lay.offsets[i]
		ops[i] = mat.Dense{Rows: sh.Rows, Cols: sh.Cols, Stride: max(sh.Rows, 1), Data: slab[off : off+lay.sizes[i]]}
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

// FillInputs refills every instance's input operands in place,
// instance-major: instance 0's inputs first, then instance 1's, exactly
// the stream order N consecutive single-instance fills would consume.
// It performs no heap allocations: the SPD scratch buffer was sized at
// compile time.
func (p *BatchPlan) FillInputs(rng *xrand.Rand) {
	p.live()
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
	p.live()
	for _, insts := range p.steps {
		for _, st := range insts {
			st.run(st.o)
		}
	}
}

// ExecuteTimed runs the sequence, timing each step with the monotonic
// clock: times[s] covers call s of all instances. The returned slice is
// owned by the plan and reused by the next ExecuteTimed; it performs no
// heap allocations.
func (p *BatchPlan) ExecuteTimed() []float64 {
	p.live()
	for s, insts := range p.steps {
		start := time.Now()
		for _, st := range insts {
			st.run(st.o)
		}
		p.times[s] = time.Since(start).Seconds()
	}
	return p.times
}

// Release ends the plan: a plan compiled into a Slab gives the slab
// back, so the next plan may be compiled into it. The plan is unusable
// afterwards: its operand headers and steps are dropped, so filling,
// executing or reading it panics instead of touching an arena another
// plan now owns, and operand matrices obtained from it before must not
// be used either. Releasing twice is a no-op. A plan that allocated its
// own arena needs no Release: the collector frees it with the plan.
func (p *BatchPlan) Release() {
	if p.insts == nil {
		return
	}
	if p.lender != nil {
		p.lender.lent = false
	}
	p.lender, p.arena, p.spdScratch = nil, nil, nil
	p.insts, p.steps = nil, nil
}

// live panics if the plan has been released.
func (p *BatchPlan) live() {
	if p.insts == nil {
		panic("exec: use of a released plan")
	}
}

// Count returns the number of instances.
func (p *BatchPlan) Count() int { return len(p.insts) }

// Stride returns the per-instance slab stride in float64s.
func (p *BatchPlan) Stride() int { return p.stride }

// ArenaLen returns the length in float64s of the whole arena.
func (p *BatchPlan) ArenaLen() int { return len(p.arena) }

// Operand returns instance inst's arena-backed matrix for the given
// operand ID, or nil if that instance has no such operand.
func (p *BatchPlan) Operand(inst int, id string) *mat.Dense {
	p.live()
	pi := &p.insts[inst]
	if i, ok := pi.lay.index[id]; ok {
		return &pi.ops[i]
	}
	return nil
}

// Output returns instance inst's arena-backed result operand.
func (p *BatchPlan) Output(inst int) *mat.Dense {
	p.live()
	pi := &p.insts[inst]
	return &pi.ops[pi.lay.output]
}
