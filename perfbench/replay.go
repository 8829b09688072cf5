package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"time"

	"lamb/internal/cache"
	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/outcomes"
	"lamb/internal/router"
	"lamb/internal/selection"
	"lamb/internal/xrand"
)

// The traced run replays the first w.replay requests of the workload's
// stream in-process, twice, on fresh engines configured like serve:
//
//   - untraced: Engine.Do alone, timed per call (feedback posts run
//     untimed) — engine.do_us and the engine counters come from this pass;
//   - traced: every request under a root span with children for the
//     serve layer's JSON decode, Engine.Do, and the record encode, then a
//     "layers" span that re-runs the steps Do performs one layer at a
//     time (bind on a bind-LRU miss, outcome-store Near, posterior,
//     strategy choice, ranking, and for computed batches the fused plan
//     compile and execute). The replayed steps must reach Do's answer:
//     the same pick, anomaly flag, checksums and fused flags.
//
// Both passes must produce byte-identical records, except on the adaptive
// workload, whose answers are checked by invariants (see layers). A third
// phase times the router in-process against a running serve backend, on
// the routed workload.

// Constants mirrored from the engine, so the replay computes what Do
// computes.
const (
	batchFillSeed    = 0x5ab5 // fill stream for operands a batch does not supply
	heteroPaddingMax = 4      // widest chunk-width spread a mixed bucket fuses
	rankSeed         = 0x5e1ec7_4a2b
)

// routerPairs is how many (direct, routed) request pairs time the router.
const routerPairs = 1000

// replayBlocks is how many blocks the two replay passes alternate in.
const replayBlocks = 8

// layerSpans are the replayed steps of Do; their self time over Do's
// is the replay's coverage of engine.do_us.
var layerSpans = []string{"expr.bind", "outcomes.near", "selection.posterior", "selection.choose",
	"selection.rank", "exec.compile", "exec.fill", "exec.execute"}

// queryBody is the /api/v1/query body as serve decodes it.
type queryBody struct {
	engine.Query
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// batchBody is the /api/v1/batch body as serve decodes it.
type batchBody struct {
	Queries   []engine.Query `json:"queries"`
	TimeoutMs int            `json:"timeout_ms,omitempty"`
	Compute   bool           `json:"compute,omitempty"`
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replayer re-runs Do's steps one layer at a time.
type replayer struct {
	v *env
	// bindLRU mirrors the engine's bind LRU (same capacity, same key
	// sequence), so the replay binds, on side, exactly where Do missed.
	// side has a one-entry LRU, so each of those binds does the work.
	bindLRU *cache.LRU[string, []expr.Algorithm]
	side    *engine.Engine
	// store is a standalone outcome store restored from the workload's
	// snapshot that sees the same Near and Add sequence as the engine's.
	store     *outcomes.Store
	predictor selection.Predictor
	canon     map[string]string // registry name → canonical expression name
	measured  *exec.Measured

	nearCalls, nearObs int64
	execFlops          float64
	// fused counts the queries the exec replay ran through a fused plan.
	fused int64
}

func newReplayer(v *env, snapPath string) (*replayer, error) {
	r := &replayer{
		v:         v,
		bindLRU:   cache.NewLRU[string, []expr.Algorithm](engine.DefaultBindEntries),
		side:      engine.New(engine.Config{BindEntries: 1}),
		store:     outcomes.NewStore(engine.DefaultFeedbackEntries, v.halfLife()),
		predictor: selection.FlopsPredictor{},
		canon:     map[string]string{},
		measured:  exec.NewMeasured(),
	}
	if v.profSet != nil {
		r.predictor = selection.MinPredicted{Profiles: v.profSet}
	}
	for _, n := range expr.Names() {
		x, err := expr.Lookup(n)
		if err != nil {
			return nil, err
		}
		r.canon[n] = x.Name()
	}
	if snapPath != "" {
		snap, err := outcomes.ReadFile(snapPath)
		if err != nil {
			return nil, err
		}
		r.store.Restore(snap, func(name string, _ expr.Instance, _ int) (string, bool) {
			c, ok := r.canon[strings.ToLower(name)]
			return c, ok
		})
	}
	return r, nil
}

// bind returns the bound set, timing the bind when it misses the
// mirrored bind LRU.
func (r *replayer) bind(t *tracer, parent int32, q engine.Query) ([]expr.Algorithm, error) {
	key := r.canon[strings.ToLower(q.Expr)] + "|" + q.Instance.String()
	if algs, ok := r.bindLRU.Get(key); ok {
		return algs, nil
	}
	s := t.begin("expr.bind", parent)
	algs, err := r.side.Algorithms(q.Expr, q.Instance)
	t.end(s)
	if err != nil {
		return nil, err
	}
	r.bindLRU.Put(key, algs)
	return algs, nil
}

// warm replays the binds and outcome-store reads of the warm-up pass
// (warmEngine), untimed, so the mirrored bind LRU and the store's touch
// order start where the engine's do.
func (r *replayer) warm(in *inputs) error {
	t := newTracer(0)
	for _, i := range in.warm {
		qs := in.pool[i].batch
		if in.pool[i].path == pathQuery {
			qs = []engine.Query{in.pool[i].query}
		}
		for _, q := range qs {
			if _, err := r.bind(t, -1, q); err != nil {
				return err
			}
			r.store.Near(r.canon[strings.ToLower(q.Expr)], q.Instance, selection.DefaultAdaptiveRadius)
		}
	}
	return nil
}

// layers replays one query's selection under parent and checks it
// reaches the record's pick and anomaly flag. It returns the bound set
// and the pick's position.
func (r *replayer) layers(t *tracer, parent int32, q engine.Query, rec *engine.Record) ([]expr.Algorithm, int, error) {
	algs, err := r.bind(t, parent, q)
	if err != nil {
		return nil, 0, err
	}
	canon := r.canon[strings.ToLower(q.Expr)]
	s := t.begin("outcomes.near", parent)
	obs := r.store.Near(canon, q.Instance, selection.DefaultAdaptiveRadius)
	t.end(s)
	r.nearCalls++
	r.nearObs += int64(len(obs))

	s = t.begin("selection.posterior", parent)
	post := selection.Adaptive{
		Prior:   r.predictor,
		Radius:  selection.DefaultAdaptiveRadius,
		Observe: func(expr.Instance) []selection.Observation { return obs },
	}.Posterior(q.Instance, algs)
	t.end(s)

	s = t.begin("selection.choose", parent)
	var pick int
	switch q.Strategy {
	case "min-predicted":
		pick = selection.MinPredicted{Profiles: r.v.profSet}.Choose(algs)
	case "adaptive":
		pick = selection.BestIndex(post)
	default:
		pick = selection.MinFlops{}.Choose(algs)
	}
	t.end(s)

	s = t.begin("selection.rank", parent)
	anomaly := rankLayer(canon, q.Instance, algs, post)
	t.end(s)

	// Once feedback evicts from a full store, which record goes depends on
	// the order Near touched its matches in, and Near touches them in map
	// order: the replay's store and the engine's can drift apart, so adaptive
	// answers are checked by invariants (runTrace) instead.
	if r.v.w.adaptive {
		return algs, pick, nil
	}
	if algs[pick].Index != rec.Selected.Index || anomaly != rec.Anomaly {
		return nil, 0, fmt.Errorf("layer replay of %s%v picked %d (anomaly %v), Do answered %d (anomaly %v)",
			q.Expr, q.Instance, algs[pick].Index, anomaly, rec.Selected.Index, rec.Anomaly)
	}
	return algs, pick, nil
}

// rankLayer is the ranking step of every record: Monte Carlo win
// probabilities, the fastest-first order, the top-2 confidence, and the
// anomaly test (the min-FLOPs pick probably beaten).
func rankLayer(exprName string, inst expr.Instance, algs []expr.Algorithm, post []selection.AlgPosterior) bool {
	selection.WinProbabilities(post, xrand.NewLabeled(rankSeed, exprName+"|"+inst.String()), 0)
	order := make([]int, len(post))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return post[order[a]].Mean < post[order[b]].Mean })
	selection.GapConfidence(post)
	best := selection.BestIndex(post)
	mf := selection.MinFlops{}.Choose(algs)
	return best != mf && selection.BeatProbability(post[mf], post[best]) < selection.DefaultAnomalyThreshold
}

// execReplay executes a computed batch the way the engine's fused result
// path does: bucket by (expression, selected algorithm, shape octave),
// one mixed fused plan per chunk of a bucket in the fused regime, one
// plan per query otherwise. It returns each query's result checksum and
// whether it ran fused; the caller requires both to equal Do's, so a
// change to the engine's fusion rule fails the traced run instead of
// leaving exec.* timing an outdated copy of it.
//
// Every batch of the workload holds distinct instances, so no bucket is
// homogeneous and the engine's cached BatchPlan path never runs; the
// replay does not model it.
func (r *replayer) execReplay(t *tracer, parent int32, qs []engine.Query, sel []*expr.Algorithm) ([]float64, []bool, error) {
	sums := make([]float64, len(qs))
	fused := make([]bool, len(qs))
	buckets := map[string][]int{}
	var order []string
	for i, q := range qs {
		key := strings.ToLower(q.Expr) + "#" + strconv.Itoa(sel[i].Index) + "#" + shapeOctaves(q.Instance)
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], i)
	}
	unfused := func(idxs []int) error {
		for _, i := range idxs {
			s := t.begin("exec.compile", parent)
			p, err := exec.CompilePlan(sel[i])
			t.end(s)
			if err != nil {
				return err
			}
			s = t.begin("exec.fill", parent)
			p.FillInputs(xrand.New(batchFillSeed))
			t.end(s)
			s = t.begin("exec.execute", parent)
			p.Execute()
			t.end(s)
			r.execFlops += sel[i].Flops()
			sums[i] = denseChecksum(p.Output())
		}
		return nil
	}
	for _, key := range order {
		idxs := buckets[key]
		width, minChunk, maxChunk := 0, 0, 0
		for _, i := range idxs {
			w, c := r.measured.FuseWidth(sel[i]), r.measured.FuseChunk(sel[i])
			if w < 2 || c < 1 {
				width = 0
				break
			}
			if width == 0 || w < width {
				width = w
			}
			if minChunk == 0 || c < minChunk {
				minChunk = c
			}
			maxChunk = max(maxChunk, c)
		}
		if len(idxs) < 2 || width < 2 || maxChunk > heteroPaddingMax*minChunk {
			if err := unfused(idxs); err != nil {
				return nil, nil, err
			}
			continue
		}
		for lo := 0; lo < len(idxs); lo += width {
			sub := idxs[lo:min(lo+width, len(idxs))]
			if len(sub) < 2 {
				if err := unfused(sub); err != nil {
					return nil, nil, err
				}
				continue
			}
			algs := make([]*expr.Algorithm, len(sub))
			for k, i := range sub {
				algs[k] = sel[i]
			}
			s := t.begin("exec.compile", parent)
			p, err := exec.CompileBatchPlanMixed(algs)
			t.end(s)
			if err != nil {
				return nil, nil, err
			}
			s = t.begin("exec.fill", parent)
			p.FillInputs(xrand.New(batchFillSeed))
			t.end(s)
			s = t.begin("exec.execute", parent)
			p.Execute()
			t.end(s)
			for k, i := range sub {
				r.execFlops += sel[i].Flops()
				sums[i] = denseChecksum(p.Output(k))
				fused[i] = true
				r.fused++
			}
		}
	}
	return sums, fused, nil
}

// shapeOctaves renders the per-dimension ⌊log2 d⌋, the engine's bucket
// coordinate.
func shapeOctaves(inst expr.Instance) string {
	var b strings.Builder
	for i, d := range inst {
		if i > 0 {
			b.WriteByte('x')
		}
		b.WriteString(strconv.Itoa(bits.Len(uint(d)) - 1))
	}
	return b.String()
}

// warmEngine answers every distinct pool request once, as the serving
// run's warm-up pass does.
func warmEngine(e *engine.Engine, in *inputs) error {
	for _, i := range in.warm {
		if _, err := reference(e, &in.pool[i]); err != nil {
			return err
		}
	}
	return nil
}

// fingerprint hashes the answers' records and computed checksums, so the
// traced pass can prove it answered exactly like the untraced one.
func fingerprint(res []engine.Result) (uint64, error) {
	h := fnv.New64a()
	for _, x := range res {
		if x.Err != nil {
			return 0, x.Err
		}
		b, err := json.Marshal(x.Record)
		if err != nil {
			return 0, err
		}
		h.Write(b)
		if x.Output != nil {
			fmt.Fprintf(h, "|%v|%v", denseChecksum(x.Output), x.Fused)
		}
	}
	return h.Sum64(), nil
}

// runTrace is the traced run: the two replay passes, the outcome-store
// and exec measurements, and the router phase. It returns the per-layer
// metrics.
func runTrace(v *env, dir, spansPath string, t *tally) (map[string]float64, map[string]any, error) {
	in := v.in
	n := min(v.w.replay, len(in.stream))
	m := map[string]float64{}

	// Two passes over the same requests, on fresh engines in the same
	// state: untraced (engine.do_us and the engine counters) and traced.
	// They alternate in blocks, so host drift reaches both alike and
	// trace.overhead_pct measures the tracing, not the drift.
	e1, err := v.newEngine()
	if err != nil {
		return nil, nil, err
	}
	if err := warmEngine(e1, in); err != nil {
		return nil, nil, err
	}
	e2, err := v.newEngine()
	if err != nil {
		return nil, nil, err
	}
	if err := warmEngine(e2, in); err != nil {
		return nil, nil, err
	}
	rp, err := newReplayer(v, v.snapPath)
	if err != nil {
		return nil, nil, err
	}
	if err := rp.warm(in); err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	fps := make([]uint64, n)
	var doNs, doQueries int64
	untraced := func(p int) {
		r := &in.pool[in.stream[p]]
		if r.path == pathFeedback {
			t.record(e1.Feedback(r.fb))
			return
		}
		req := engine.Request{Queries: r.batch, Compute: true}
		if r.path == pathQuery {
			req = engine.Request{Queries: []engine.Query{r.query}}
		}
		start := time.Now()
		res := e1.Do(ctx, req)
		doNs += time.Since(start).Nanoseconds()
		doQueries += int64(r.queries)
		var err error
		fps[p], err = fingerprint(res)
		t.record(err)
	}
	tr := newTracer(n * 16)
	var respBytes, encodes int64
	var buf bytes.Buffer
	traced := func(p int) {
		r := &in.pool[in.stream[p]]
		root := tr.begin("request", -1)
		var fp uint64
		err := func() error {
			switch r.path {
			case pathFeedback:
				var fb engine.Feedback
				s := tr.begin("serve.decode", root)
				err := decodeStrict(r.body, &fb)
				tr.end(s)
				if err != nil {
					return err
				}
				s = tr.begin("engine.feedback", root)
				err = e2.Feedback(fb)
				tr.end(s)
				if err != nil {
					return err
				}
				ls := tr.begin("layers", root)
				defer tr.end(ls)
				if _, err := rp.bind(tr, ls, engine.Query{Expr: fb.Expr, Instance: fb.Instance}); err != nil {
					return err
				}
				s = tr.begin("outcomes.add", ls)
				rp.store.Add(rp.canon[strings.ToLower(fb.Expr)], fb.Instance, fb.Algorithm, fb.Seconds)
				tr.end(s)
				return nil
			case pathQuery:
				var qb queryBody
				s := tr.begin("serve.decode", root)
				err := decodeStrict(r.body, &qb)
				tr.end(s)
				if err != nil {
					return err
				}
				s = tr.begin("engine.do", root)
				res := e2.Do(ctx, engine.Request{Queries: []engine.Query{qb.Query}})
				tr.end(s)
				if fp, err = fingerprint(res); err != nil {
					return err
				}
				s = tr.begin("serve.encode", root)
				buf.Reset()
				err = json.NewEncoder(&buf).Encode(res[0].Record)
				tr.end(s)
				respBytes += int64(buf.Len())
				encodes++
				if err != nil {
					return err
				}
				if v.w.adaptive {
					if err := checkAdaptive(&qb.Query, buf.Bytes()); err != nil {
						return err
					}
				}
				ls := tr.begin("layers", root)
				_, _, err = rp.layers(tr, ls, qb.Query, res[0].Record)
				tr.end(ls)
				return err
			default:
				var bb batchBody
				s := tr.begin("serve.decode", root)
				err := decodeStrict(r.body, &bb)
				tr.end(s)
				if err != nil {
					return err
				}
				s = tr.begin("engine.do", root)
				res := e2.Do(ctx, engine.Request{Queries: bb.Queries, Compute: bb.Compute})
				tr.end(s)
				if fp, err = fingerprint(res); err != nil {
					return err
				}
				s = tr.begin("serve.encode", root)
				items := make([]batchItem, len(res))
				for i, x := range res {
					items[i].Record = x.Record
					items[i].Result = &struct {
						Rows     int     `json:"rows"`
						Cols     int     `json:"cols"`
						Fused    bool    `json:"fused"`
						Checksum float64 `json:"checksum"`
					}{x.Output.Rows, x.Output.Cols, x.Fused, denseChecksum(x.Output)}
				}
				buf.Reset()
				err = json.NewEncoder(&buf).Encode(struct {
					Results []batchItem `json:"results"`
				}{items})
				tr.end(s)
				respBytes += int64(buf.Len())
				encodes++
				if err != nil {
					return err
				}
				ls := tr.begin("layers", root)
				defer tr.end(ls)
				sel := make([]*expr.Algorithm, len(bb.Queries))
				for i, q := range bb.Queries {
					algs, pick, err := rp.layers(tr, ls, q, res[i].Record)
					if err != nil {
						return err
					}
					sel[i] = &algs[pick]
				}
				sums, fused, err := rp.execReplay(tr, ls, bb.Queries, sel)
				if err != nil {
					return err
				}
				for i := range sums {
					if sums[i] != items[i].Result.Checksum {
						return fmt.Errorf("exec replay checksum of item %d is %v, Do computed %v", i, sums[i], items[i].Result.Checksum)
					}
					if fused[i] != items[i].Result.Fused {
						return fmt.Errorf("exec replay ran item %d fused=%v, Do ran it fused=%v", i, fused[i], items[i].Result.Fused)
					}
				}
				return nil
			}
		}()
		tr.end(root)
		if err == nil && !v.w.adaptive && fp != fps[p] {
			err = fmt.Errorf("traced replay of stream request %d answered differently from the untraced replay", p)
		}
		t.record(err)
	}
	st0, tst0 := e1.Stats(), e2.Stats()
	block := (n + replayBlocks - 1) / replayBlocks
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		for p := lo; p < hi; p++ {
			untraced(p)
		}
		for p := lo; p < hi; p++ {
			traced(p)
		}
	}
	st1, tst1 := e1.Stats(), e2.Stats()
	if got := tst1.FusedQueries - tst0.FusedQueries; got != uint64(rp.fused) {
		t.record(fmt.Errorf("exec replay fused %d queries, the traced engine's fused_queries grew by %d", rp.fused, got))
	}
	totals := tr.totals()
	perCall := func(name string) float64 {
		lt := totals[name]
		if lt == nil || lt.n == 0 {
			return 0
		}
		return float64(lt.self) / float64(lt.n) / 1e3
	}
	doUs := float64(doNs) / float64(doQueries) / 1e3
	tracedDo := totals["engine.do"]
	covered := int64(0)
	for _, name := range layerSpans {
		if lt := totals[name]; lt != nil {
			covered += lt.self
		}
	}
	m["engine.do_us"] = doUs
	m["trace.overhead_pct"] = 100 * (float64(tracedDo.total)/float64(doNs) - 1)
	m["trace.do_coverage_pct"] = 100 * float64(covered) / float64(tracedDo.total)
	m["serve.decode_us"] = perCall("serve.decode")
	m["serve.encode_us"] = perCall("serve.encode")
	m["serve.response_bytes"] = float64(respBytes) / float64(encodes)
	m["expr.bind_us"] = perCall("expr.bind")
	m["outcomes.near_us"] = perCall("outcomes.near")
	m["outcomes.near_obs"] = float64(rp.nearObs) / float64(rp.nearCalls)
	m["selection.posterior_us"] = perCall("selection.posterior")
	m["selection.choose_us"] = perCall("selection.choose")
	m["selection.rank_us"] = perCall("selection.rank")
	m["selection.rank_share"] = m["selection.rank_us"] / doUs

	// Engine counters of the untraced pass.
	d := func(a, b uint64) float64 { return float64(b - a) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	queries := d(st0.Queries, st1.Queries)
	bindLookups := d(st0.Bindings.Hits+st0.Bindings.Misses, st1.Bindings.Hits+st1.Bindings.Misses)
	adaptiveQ := d(st0.AdaptiveQueries, st1.AdaptiveQueries)
	m["engine.queries"] = queries
	m["engine.bind_lookups"] = bindLookups
	m["engine.bind_hit_ratio"] = ratio(d(st0.Bindings.Hits, st1.Bindings.Hits), bindLookups)
	m["engine.fused_share"] = ratio(d(st0.FusedQueries, st1.FusedQueries), queries)
	m["engine.fuse_rejected.too_big_arena"] = d(st0.FuseRejected.TooBigArena, st1.FuseRejected.TooBigArena)
	m["engine.fuse_rejected.unregistered"] = d(st0.FuseRejected.Unregistered, st1.FuseRejected.Unregistered)
	m["engine.fuse_rejected.hetero_prepadding"] = d(st0.FuseRejected.HeteroPrepadding, st1.FuseRejected.HeteroPrepadding)
	m["engine.anomalous_share"] = ratio(d(st0.AnomalousQueries, st1.AnomalousQueries), queries)
	m["engine.adaptive_queries"] = adaptiveQ
	m["engine.adaptive_informed_share"] = ratio(d(st0.AdaptiveInformed, st1.AdaptiveInformed), adaptiveQ)

	// Layers a workload's traffic does not reach report 0: no computed
	// batch outside batch-compute, no feedback and no boot-time restore
	// outside adaptive-store, no router outside routed-select.
	m["exec.compile_us"] = perCall("exec.compile")
	m["exec.execute_us"] = perCall("exec.execute")
	m["blas.gflops"] = 0
	if lt := totals["exec.execute"]; lt != nil && lt.self > 0 {
		m["blas.gflops"] = rp.execFlops / float64(lt.self)
	}
	m["outcomes.add_us"] = perCall("outcomes.add")
	m["outcomes.restore_ms"] = 0
	if v.snapPath != "" {
		if m["outcomes.restore_ms"], err = restoreTiming(v); err != nil {
			return nil, nil, err
		}
	}
	for _, k := range []string{"router.overhead_us", "router.requests", "router.forwards_per_query",
		"router.retries", "router.hedged", "router.degraded"} {
		m[k] = 0
	}
	if v.w.routed {
		if err := routerPhase(v, dir, m, t); err != nil {
			return nil, nil, err
		}
	}
	if err := tr.write(spansPath); err != nil {
		return nil, nil, err
	}
	detail := map[string]any{
		"replayed_requests": n,
		"spans":             len(tr.spans),
		"spans_file":        spansPath,
		"traced_do_us":      float64(tracedDo.total) / float64(doQueries) / 1e3,
	}
	return m, detail, nil
}

// restoreTiming times what serve's boot-time restore does — read and
// validate the snapshot file, restore it into a fresh engine — three
// times and returns the median in milliseconds.
func restoreTiming(v *env) (float64, error) {
	var ms []float64
	for k := 0; k < 3; k++ {
		e, err := v.baseEngine()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := restoreInto(e, v.snapPath); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// routerPhase boots the workload's serve backend and times the router
// in-process in front of it: Router.Handler().ServeHTTP against the
// backend, minus a direct post of the same body, over single-query
// bodies of the workload. Every answer, direct or routed, is checked
// against the reference. The router's counters give the forwards,
// retries, hedges and degradations per routed request.
func routerPhase(v *env, dir string, m map[string]float64, t *tally) error {
	var bodies []request
	for _, idx := range v.in.stream {
		if r := &v.in.pool[idx]; r.path == pathQuery {
			bodies = append(bodies, *r)
		}
		if len(bodies) == routerPairs {
			break
		}
	}
	ref, err := v.newEngine()
	if err != nil {
		return err
	}
	refs := map[string]*expected{}
	for i := range bodies {
		if refs[string(bodies[i].body)] == nil {
			exp, err := reference(ref, &bodies[i])
			if err != nil {
				return err
			}
			refs[string(bodies[i].body)] = exp
		}
	}
	f, _, err := v.boot(dir, 0, false)
	if err != nil {
		return err
	}
	defer f.stop()
	rt, err := router.New(router.Config{Backends: []string{f.front}})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()
	h := rt.Handler()
	cl := newClient()
	defer cl.close()

	var buf bytes.Buffer
	direct := func(r *request) (float64, error) {
		start := time.Now()
		status, err := cl.post(f.front+r.path, r.body, &buf)
		d := float64(time.Since(start).Nanoseconds()) / 1e3
		if err == nil {
			err = checkFirst(r, refs[string(r.body)], status, buf.Bytes())
		}
		return d, err
	}
	routed := func(r *request) (float64, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := float64(time.Since(start).Nanoseconds()) / 1e3
		return d, checkFirst(r, refs[string(r.body)], rec.Code, rec.Body.Bytes())
	}
	// Untimed warm-up: every body once each way.
	for i := range bodies {
		_, err := direct(&bodies[i])
		t.record(err)
		_, err = routed(&bodies[i])
		t.record(err)
	}
	st0 := rt.Stats()
	var dUs, rUs []float64
	for i := range bodies {
		r := &bodies[i]
		var a, b float64
		var errA, errB error
		if i%2 == 0 {
			a, errA = direct(r)
			b, errB = routed(r)
		} else {
			b, errB = routed(r)
			a, errA = direct(r)
		}
		t.record(errA)
		t.record(errB)
		dUs, rUs = append(dUs, a), append(rUs, b)
	}
	st1 := rt.Stats()
	m["router.overhead_us"] = median(rUs) - median(dUs)
	m["router.requests"] = float64(len(bodies))
	m["router.forwards_per_query"] = float64(st1.Forwards-st0.Forwards) / float64(len(bodies))
	m["router.retries"] = float64(st1.Retries - st0.Retries)
	m["router.hedged"] = float64(st1.Hedged - st0.Hedged)
	m["router.degraded"] = float64(st1.DegradedQueries - st0.DegradedQueries)
	if err := f.stop(); err != nil {
		return err
	}
	return nil
}
