package engine

// Fused result execution: Do with Compute answers a batch of queries
// AND computes each query's result, routing same-algorithm queries of
// similar shape through one fused batch plan. Selection goes through
// Do's one query path (coalescing, singleflight, fused timed
// measurement); the execution step then buckets the answered queries by
// (expression, selected algorithm index, shape octave) so that a bucket
// — queries of one expression and one algorithm family, shapes within
// one power-of-two octave per dimension — executes through one
// BatchPlan padded to a common stride, compiled, filled and released
// once instead of once per query. Buckets that cannot fuse (no batched
// executor, instance arenas over the slab budget, padding overhead too
// high) fall back to per-query execution and are counted, by reason, in
// Stats.FuseRejected. Every plan, fused or per query, is compiled into
// the engine's one slab from the bound sets' memoised layouts, run and
// released under the execution lock.

import (
	"fmt"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/ir"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// batchFillSeed seeds the deterministic stream that fills every
// computed operand, so results are reproducible.
const batchFillSeed = 0x5ab5

// heteroPaddingMax is the padding-overhead gate for mixed buckets: a
// mixed plan pads every instance slab to the largest stride in the
// bucket, and chunk widths are inversely proportional to stride, so a
// chunk-width spread beyond this factor means the small instances would
// waste most of their padded slabs. Such buckets execute unfused and
// count as HeteroPrepadding rejects.
const heteroPaddingMax = 4

// target is one answered query's execution target: its selected
// algorithm in the bound set it was answered from, and that
// algorithm's memoised plan layout (nil if it does not validate).
type target struct {
	alg *expr.Algorithm
	lay *exec.Layout
}

// compute executes each answered query's selected algorithm and stores
// its output in out, in request order. sets[i] is the bound set query
// i was answered from, so the pick needs no second bind. Every input
// operand is filled from a deterministic stream. Queries that selected
// the same algorithm of the same expression at shapes within one
// power-of-two octave per dimension are executed through one fused
// batch plan and marked Fused;
// each fused-executed query counts in Stats.FusedQueries. Buckets
// outside the fused regime execute per query and count in
// Stats.FuseRejected by reason.
//
// Every executable query's Output is set up front to a view into one
// output slab for the whole request; execution copies the result into
// it, and a query that fails has its Output cleared.
func (e *Engine) compute(sets []*boundSet, out []Result) {
	sel := make([]target, len(out))
	slot := make(map[bucketKey]int)
	var buckets [][]int // in order of first appearance
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
			continue
		}
		key := bucketKey{expr: rec.Expr, alg: rec.Selected.Index, oct: rec.Instance.Octaves()}
		k, ok := slot[key]
		if !ok {
			k = len(buckets)
			slot[key] = k
			buckets = append(buckets, nil)
		}
		buckets[k] = append(buckets[k], i)
	}
	outputSlab(sel, out)
	for _, idxs := range buckets {
		e.execBucket(idxs, sel, out)
	}
}

// bucketKey is the fuse-bucket coordinate: the expression, the selected
// algorithm's index, and the instance's per-dimension octaves. Two
// instances of one bucket differ by less than 2× in every dimension, so
// their padded arenas waste at most a bounded fraction of the common
// stride.
type bucketKey struct {
	expr string
	alg  int
	oct  ir.Key
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

// execBucket executes one bucket of answered queries, fused when the
// executor and the regime allow, per query otherwise (with the reject
// reason counted).
func (e *Engine) execBucket(idxs []int, sel []target, out []Result) {
	if len(idxs) < 2 {
		e.execUnfused(idxs, sel, out)
		return
	}
	be, ok := e.timer.Exec.(exec.BatchExecutor)
	if !ok {
		e.rejUnregistered.Add(uint64(len(idxs)))
		e.execUnfused(idxs, sel, out)
		return
	}
	// One fused plan spans up to MaxFusedChunks chunks of the bucket's
	// narrowest chunk width.
	minChunk, maxChunk := 0, 0
	for _, i := range idxs {
		c := layoutChunk(be, sel[i].lay)
		if c < 1 {
			minChunk = 0
			break
		}
		if minChunk == 0 || c < minChunk {
			minChunk = c
		}
		maxChunk = max(maxChunk, c)
	}
	width := minChunk * exec.MaxFusedChunks
	if width < 2 {
		e.rejTooBig.Add(uint64(len(idxs)))
		e.execUnfused(idxs, sel, out)
		return
	}
	if maxChunk > heteroPaddingMax*minChunk {
		e.rejHetero.Add(uint64(len(idxs)))
		e.execUnfused(idxs, sel, out)
		return
	}
	for lo := 0; lo < len(idxs); lo += width {
		sub := idxs[lo:min(lo+width, len(idxs))]
		if len(sub) < 2 {
			e.execUnfused(sub, sel, out)
			continue
		}
		e.execFusedChunk(sub, sel, out)
	}
}

// execFusedChunk executes up to one fuse width of a bucket through one
// fused plan. A chunk that fails to lay out or compile falls back to
// per-query execution, so one bad query cannot take its bucket
// neighbours down.
func (e *Engine) execFusedChunk(idxs []int, sel []target, out []Result) {
	if e.runChunk(idxs, sel, out) != nil {
		e.execUnfused(idxs, sel, out)
		return
	}
	for _, i := range idxs {
		out[i].Fused = true
	}
	e.fused.Add(uint64(len(idxs)))
}

// execUnfused executes each query alone, as a chunk of one. A query
// that fails has its Output cleared.
func (e *Engine) execUnfused(idxs []int, sel []target, out []Result) {
	for k, i := range idxs {
		if out[i].Err = e.runChunk(idxs[k:k+1], sel, out); out[i].Err != nil {
			out[i].Output = nil
		}
	}
}

// runChunk compiles the chunk's plan into the engine's slab from the
// chunk's memoised layouts, fills every operand from the deterministic
// stream, runs it, and copies each instance's output into the view
// outputSlab set up as its query's Output. Only laying out and compiling can fail: a target
// without a layout did not validate, and exec.NewLayout reports why;
// the fill's SPD operands are ones the factorisations accept. Compile,
// run and release all happen under the execution lock: execution must
// not contend with a concurrent timed measurement, and the one slab
// serves one plan at a time. The plan gives the slab back before the
// lock is released.
func (e *Engine) runChunk(idxs []int, sel []target, out []Result) error {
	lays := make([]*exec.Layout, len(idxs))
	for k, i := range idxs {
		if sel[i].lay == nil {
			_, err := exec.NewLayout(sel[i].alg)
			return err
		}
		lays[k] = sel[i].lay
	}
	e.execMu.Lock()
	defer e.execMu.Unlock()
	p, err := e.slab.Compile(lays)
	if err != nil {
		return err
	}
	defer p.Release()
	p.FillInputs(xrand.New(batchFillSeed))
	p.Execute()
	for k, i := range idxs {
		mat.Copy(out[i].Output, p.Output(k))
	}
	return nil
}
