package engine

// Fused result execution: Do with Compute answers a batch of queries
// AND computes each query's result, routing same-algorithm queries of
// similar shape through one fused batch plan. Selection goes through
// the ordinary batched pipeline (coalescing, singleflight, fused timed
// measurement); the execution step then buckets the answered queries by
// (expression, selected algorithm index, shape octave) so that
//
//   - a bucket whose queries bound the exact same algorithm instance
//     executes through a BatchPlan bound to the batched drivers (cached
//     in the plan LRU), and
//   - a bucket of mixed instances — same expression, same algorithm
//     family, shapes within one power-of-two octave per dimension —
//     executes through a mixed BatchPlan, padded to a common stride,
//
// both amortising the per-dispatch fixed costs that dominate the
// small-instance regime. Buckets that cannot fuse (no batched executor,
// instance arenas over the slab budget, padding overhead too high) fall
// back to per-query execution and are counted, by reason, in
// Stats.FuseRejected.

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// batchFillSeed seeds the deterministic stream that fills operands the
// caller did not supply, so default-filled results are reproducible.
const batchFillSeed = 0x5ab5

// heteroPaddingMax is the padding-overhead gate for mixed buckets: a
// mixed plan pads every instance slab to the largest stride in the
// bucket, and chunk widths are inversely proportional to stride, so a
// chunk-width spread beyond this factor means the small instances would
// waste most of their padded slabs. Such buckets execute unfused and
// count as HeteroPrepadding rejects.
const heteroPaddingMax = 4

// BatchExecResult pairs one query's selection record with the computed
// result of running the selected algorithm on that query's inputs.
type BatchExecResult struct {
	Record *Record
	// Output is the selected algorithm's result (caller-owned copy);
	// nil when Err is set.
	Output *mat.Dense
	Err    error
	// Fused reports whether this result was computed through a fused
	// batch plan shared with other queries of the same bucket.
	Fused bool
}

// queryBatchExecCtx answers the queries (through queryBatchCtx: within-
// batch coalescing, singleflight, fused timed measurement) and then
// executes each query's selected algorithm, returning records and
// results in request order. inputs[i], when present, supplies query i's
// input operands by ID (shapes must match the instance); missing
// operands are filled from a deterministic stream. Queries that
// selected the same algorithm of the same expression at shapes within
// one power-of-two octave per dimension are executed through one fused
// batch plan — identical instances through the cached homogeneous plan,
// mixed instances through a padded heterogeneous plan — and marked
// Fused; each fused-executed query counts in Stats.FusedQueries.
// Buckets outside the fused regime execute per query and count in
// Stats.FuseRejected by reason.
func (e *Engine) queryBatchExecCtx(ctx context.Context, qs []Query, inputs []map[string]*mat.Dense) []BatchExecResult {
	out := make([]BatchExecResult, len(qs))
	recs := e.queryBatchCtx(ctx, qs)
	algOf := make([]*expr.Algorithm, len(qs))
	buckets := make(map[string][]int)
	var order []string
	for i := range recs {
		out[i].Record, out[i].Err = recs[i].Record, recs[i].Err
		if out[i].Err != nil || out[i].Record == nil {
			continue
		}
		algs, err := e.Algorithms(qs[i].Expr, qs[i].Instance)
		if err != nil {
			out[i].Err = err
			continue
		}
		for j := range algs {
			if algs[j].Index == out[i].Record.Selected.Index {
				algOf[i] = &algs[j]
				break
			}
		}
		if algOf[i] == nil {
			out[i].Err = fmt.Errorf("engine: selected algorithm %d not in bound set", out[i].Record.Selected.Index)
			continue
		}
		key := out[i].Record.Expr + "#" + strconv.Itoa(algOf[i].Index) + "#" + shapeOctaves(qs[i].Instance)
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], i)
	}
	for _, key := range order {
		e.execBucket(buckets[key], inputs, algOf, out)
	}
	return out
}

// shapeOctaves renders the instance's per-dimension power-of-two octave
// (⌊log2 d⌋), the bucketing coordinate: two instances in one octave
// differ by less than 2× in every dimension, so their padded arenas
// waste at most a bounded fraction of the common stride.
func shapeOctaves(inst expr.Instance) string {
	var b strings.Builder
	for i, d := range inst {
		if i > 0 {
			b.WriteByte('x')
		}
		o := 0
		if d > 0 {
			o = bits.Len(uint(d)) - 1
		}
		b.WriteString(strconv.Itoa(o))
	}
	return b.String()
}

// execBucket executes one bucket of answered queries, fused when the
// executor and the regime allow, per query otherwise (with the reject
// reason counted).
func (e *Engine) execBucket(idxs []int, inputs []map[string]*mat.Dense, algOf []*expr.Algorithm, out []BatchExecResult) {
	if len(idxs) < 2 {
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	be, ok := e.timer.Exec.(exec.BatchExecutor)
	if !ok {
		e.rejUnregistered.Add(uint64(len(idxs)))
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	// One fused plan spans up to MaxFusedChunks chunks of the bucket's
	// narrowest chunk width.
	minChunk, maxChunk := 0, 0
	for _, i := range idxs {
		c := be.FuseChunk(algOf[i])
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
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	homog := true
	for _, i := range idxs[1:] {
		if algOf[i] != algOf[idxs[0]] {
			homog = false
			break
		}
	}
	if !homog && maxChunk > heteroPaddingMax*minChunk {
		e.rejHetero.Add(uint64(len(idxs)))
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	for lo := 0; lo < len(idxs); lo += width {
		sub := idxs[lo:min(lo+width, len(idxs))]
		if len(sub) < 2 {
			e.execUnfused(sub, inputs, algOf, out)
			continue
		}
		e.execFusedChunk(sub, homog, inputs, algOf, out)
	}
}

// execFusedChunk executes up to one fuse width of a bucket through one
// fused plan. Any compile or execution failure (e.g. a non-SPD input to
// a Cholesky-based algorithm poisoning the whole batched factorisation)
// falls back to per-query execution, so one bad query cannot take its
// bucket neighbours down.
func (e *Engine) execFusedChunk(idxs []int, homog bool, inputs []map[string]*mat.Dense, algOf []*expr.Algorithm, out []BatchExecResult) {
	var p *exec.BatchPlan
	var err error
	switch alg := algOf[idxs[0]]; {
	case homog && e.plans != nil:
		p, err = e.plans.BatchPlan(alg, len(idxs))
	case homog:
		p, err = exec.CompileBatchPlan(alg, len(idxs))
	default:
		algs := make([]*expr.Algorithm, len(idxs))
		for k, i := range idxs {
			algs[k] = algOf[i]
		}
		p, err = exec.CompileBatchPlanMixed(algs)
	}
	if err != nil {
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	// Fill, override, execute, and copy outputs under the execution
	// lock: cached batch plans are shared and not safe for concurrent
	// use, and fused execution must not contend with a concurrent timed
	// measurement.
	e.execMu.Lock()
	failed := runFused(p, idxs, inputs, algOf)
	if failed == nil {
		for k, i := range idxs {
			o := p.Output(k)
			cp := mat.New(o.Rows, o.Cols)
			mat.Copy(cp, o)
			out[i].Output = cp
			out[i].Fused = true
		}
	}
	e.execMu.Unlock()
	if failed != nil {
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	e.fused.Add(uint64(len(idxs)))
}

// runFused drives one fused plan execution, converting kernel panics
// (shape mismatches, non-SPD operands) into an error.
func runFused(p *exec.BatchPlan, idxs []int, inputs []map[string]*mat.Dense, algOf []*expr.Algorithm) (failed error) {
	defer func() {
		if r := recover(); r != nil {
			failed = fmt.Errorf("engine: fused execution failed: %v", r)
		}
	}()
	p.FillInputs(xrand.New(batchFillSeed))
	for k, i := range idxs {
		for id, src := range inputMap(inputs, i) {
			if _, ok := algOf[i].Shapes[id]; ok {
				p.SetInput(k, id, src)
			}
		}
	}
	p.Execute()
	return nil
}

// execUnfused executes each query through its own single-instance plan.
func (e *Engine) execUnfused(idxs []int, inputs []map[string]*mat.Dense, algOf []*expr.Algorithm, out []BatchExecResult) {
	for _, i := range idxs {
		out[i].Output, out[i].Err = execOne(algOf[i], inputMap(inputs, i))
		out[i].Fused = false
	}
}

// execOne compiles and runs one query's selected algorithm on a private
// plan, converting kernel panics into an error.
func execOne(alg *expr.Algorithm, in map[string]*mat.Dense) (o *mat.Dense, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, fmt.Errorf("engine: execution failed: %v", r)
		}
	}()
	p, err := exec.CompilePlan(alg)
	if err != nil {
		return nil, err
	}
	p.FillInputs(xrand.New(batchFillSeed))
	for id, src := range in {
		if _, ok := alg.Shapes[id]; ok {
			p.SetInput(id, src)
		}
	}
	p.Execute()
	res := p.Output()
	cp := mat.New(res.Rows, res.Cols)
	mat.Copy(cp, res)
	return cp, nil
}

// inputMap returns query i's input map, tolerating a short or nil
// inputs slice.
func inputMap(inputs []map[string]*mat.Dense, i int) map[string]*mat.Dense {
	if i < len(inputs) {
		return inputs[i]
	}
	return nil
}
