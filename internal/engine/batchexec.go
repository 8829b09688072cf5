package engine

// Computed results: Do with Compute answers a batch of queries AND
// computes each query's result. Selection goes through Do's one query
// path (coalescing, singleflight, per-instance timed measurement); the
// execution step then runs every answered query alone, as a chunk of
// one: its selected algorithm is compiled from the bound set's
// memoised layout into a slab the request borrows from the engine,
// filled from a fresh stream of the engine's fill seed, run, summed
// (and, unless the request omits outputs, copied out) and released. A
// computed output is therefore a function of (expression, instance,
// selected algorithm) alone, whatever else its request carries and
// whichever slab ran it.

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
// Unless omit is set, every executable query's Output is set up front
// to a view into one output slab for the whole request; execution
// copies the result into it, and a query that fails has its Output
// cleared.
func (e *Engine) compute(sets []*boundSet, out []Result, omit bool) {
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
	if !omit {
		outputSlab(sel, out)
	}
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

// execTargets runs every query with a target alone, in one slab
// borrowed for the whole request, under a shared hold of the execution
// lock: compute requests run side by side, each in a slab of its own,
// but never beside a timed measurement. Each plan is compiled into the
// slab from its memoised layout, filled from a fresh stream, run,
// summed, copied into its query's Output if outputSlab set one, and
// released. A target without a layout did not validate: its query
// fails with the error exec.NewLayout reports and has its Output
// cleared.
func (e *Engine) execTargets(sel []target, out []Result) {
	e.execMu.RLock()
	defer e.execMu.RUnlock()
	// The wait for a slab cannot deadlock: every slab out is held by a
	// request that already holds the shared lock and gives it back
	// without waiting for anything. Taking the lock first means a slab
	// out implies an execution that no measurement may overlap.
	slab := <-e.free
	defer func() { e.free <- slab }()
	for i, t := range sel {
		if t.alg == nil {
			continue
		}
		if t.lay == nil {
			_, out[i].Err = exec.NewLayout(t.alg)
			out[i].Output = nil
			continue
		}
		runChunk(slab, t.lay, &out[i])
	}
}

// runChunk runs one query's plan in slab, records its output's shape
// and checksum in res and copies the output into res.Output if set.
// The plan gives the slab back even if a kernel panics, so the slab
// stays usable for the next request.
func runChunk(slab *exec.Slab, lay *exec.Layout, res *Result) {
	p := slab.Compile(lay)
	defer p.Release()
	p.FillInputs(xrand.New(batchFillSeed))
	p.Execute()
	o := p.Output()
	res.Rows, res.Cols, res.Checksum = o.Rows, o.Cols, checksum(o)
	if res.Output != nil {
		mat.Copy(res.Output, o)
	}
}

// checksum sums a matrix's elements column by column, rows in order
// (stride-aware), so equal bits give equal sums.
func checksum(d *mat.Dense) float64 {
	var sum float64
	for c := 0; c < d.Cols; c++ {
		for _, v := range d.Data[c*d.Stride : c*d.Stride+d.Rows] {
			sum += v
		}
	}
	return sum
}
