package engine

// Computed results: Do with Compute answers a batch of queries AND
// computes each query's result. Selection goes through Do's one query
// path (coalescing, singleflight, per-instance timed measurement); the
// execution step then runs every answered query alone, as a chunk of
// one: its selected algorithm is compiled into the engine's one slab
// from the bound set's memoised layout, filled from a fresh stream of
// the engine's fill seed, run, copied out and released. A computed
// output is therefore a function of (expression, instance, selected
// algorithm) alone, whatever else its request carries.

import (
	"fmt"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// batchFillSeed seeds the deterministic stream that fills every
// computed operand, so results are reproducible.
const batchFillSeed = 0x5ab5

// target is one answered query's execution target: its selected
// algorithm in the bound set it was answered from, and that
// algorithm's memoised plan layout (nil if it does not validate).
type target struct {
	alg *expr.Algorithm
	lay *exec.Layout
}

// compute executes each answered query's selected algorithm and stores
// its output in out, in request order. sets[i] is the bound set query
// i was answered from, so the pick needs no second bind.
//
// Every executable query's Output is set up front to a view into one
// output slab for the whole request; execution copies the result into
// it, and a query that fails has its Output cleared.
func (e *Engine) compute(sets []*boundSet, out []Result) {
	sel := make([]target, len(out))
	for i := range out {
		if out[i].Err != nil || out[i].Record == nil {
			continue
		}
		b, rec := sets[i], out[i].Record
		for k := range b.algs {
			if b.algs[k].Index == rec.Selected.Index {
				sel[i] = target{alg: &b.algs[k], lay: b.layout(k)}
				break
			}
		}
		if sel[i].alg == nil {
			out[i].Err = fmt.Errorf("engine: selected algorithm %d not in bound set", rec.Selected.Index)
		}
	}
	outputSlab(sel, out)
	e.execTargets(sel, out)
}

// outputSlab points the Output of every query with a selected algorithm
// at its own view into one slab, sized to the sum of their outputs, so
// a request's results cost two allocations rather than one per query.
func outputSlab(sel []target, out []Result) {
	total, n := 0, 0
	for _, t := range sel {
		if t.alg != nil {
			sh := t.alg.Shapes[t.alg.Output]
			total += max(sh.Rows, 1) * sh.Cols
			n++
		}
	}
	if n == 0 {
		return
	}
	slab := make([]float64, total)
	views := make([]mat.Dense, 0, n)
	for i, t := range sel {
		if t.alg == nil {
			continue
		}
		sh := t.alg.Shapes[t.alg.Output]
		size := max(sh.Rows, 1) * sh.Cols
		views = append(views, mat.Dense{Rows: sh.Rows, Cols: sh.Cols, Stride: max(sh.Rows, 1), Data: slab[:size:size]})
		out[i].Output = &views[len(views)-1]
		slab = slab[size:]
	}
}

// execTargets runs every query with a target alone, under one hold of
// the execution lock for the whole request: execution must not contend
// with a concurrent timed measurement, and the engine's one slab serves
// one plan at a time. Each plan is compiled into the slab from its
// memoised layout, filled from a fresh stream, run, copied into the
// view outputSlab set up as its query's Output, and released. A target
// without a layout did not validate: its query fails with the error
// exec.NewLayout reports and has its Output cleared.
func (e *Engine) execTargets(sel []target, out []Result) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	for i, t := range sel {
		if t.alg == nil {
			continue
		}
		if t.lay == nil {
			_, out[i].Err = exec.NewLayout(t.alg)
			out[i].Output = nil
			continue
		}
		e.runChunk(t.lay, out[i].Output)
	}
}

// runChunk runs one query's plan in the engine's slab and copies its
// output into dst. The plan gives the slab back even if a kernel
// panics, so the slab stays usable for the next request.
func (e *Engine) runChunk(lay *exec.Layout, dst *mat.Dense) {
	p := e.slab.Compile(lay)
	defer p.Release()
	p.FillInputs(xrand.New(batchFillSeed))
	p.Execute()
	mat.Copy(dst, p.Output())
}
