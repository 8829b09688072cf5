package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/outcomes"
	"lamb/internal/selection"
	"lamb/internal/xrand"
)

// workload is one traffic mix: how its servers boot, and how its inputs
// are generated from the seed.
type workload struct {
	name string
	// backend is the `lamb serve -backend` value; profile boots serve
	// with testdata/profile-ci.json; snapshot boots it with the generated
	// outcome snapshot (-outcomes, -half-life 0, no periodic snapshots);
	// routed puts `lamb route` in front of the one serve backend.
	backend  string
	profile  bool
	snapshot bool
	routed   bool
	// adaptive answers depend on feedback sent during the run, so they
	// are checked by invariants instead of byte equality.
	adaptive bool
	// replay is the number of stream requests the traced run replays: a
	// fixed count, so the traced counters repeat exactly for a seed.
	replay int
	// ref is the reference the window's time metrics are read against.
	ref      refSpec
	generate func(seed uint64) (*inputs, error)
}

var workloads = []*workload{
	{name: "select-mix", backend: "sim", profile: true, replay: 6000, ref: refQuery, generate: genSelectMix},
	{name: "adaptive-store", backend: "sim", profile: true, snapshot: true, adaptive: true, replay: 5000, ref: refQuery, generate: genAdaptiveStore},
	{name: "batch-compute", backend: "blas", replay: 36, ref: refBatch, generate: genBatchCompute},
	{name: "routed-select", backend: "sim", profile: true, routed: true, replay: 6000, ref: refQuery, generate: genSelectMix},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Request paths of the v1 API.
const (
	pathQuery    = "/api/v1/query"
	pathBatch    = "/api/v1/batch"
	pathFeedback = "/api/v1/feedback"
)

// request is one pre-encoded HTTP request plus its decoded form, which
// the reference and the in-process replay use.
type request struct {
	path string
	body []byte
	// queries is the number of queries the request answers (a batch
	// counts each item; feedback counts none).
	queries int
	query   engine.Query    // pathQuery
	batch   []engine.Query  // pathBatch (always with compute)
	fb      engine.Feedback // pathFeedback
}

// inputs is everything a workload sends, generated from the seed.
type inputs struct {
	// pool holds the distinct requests; answers are checked per pool
	// index.
	pool []request
	// warm lists the pool indices of the untimed warm-up pass: every
	// distinct query request once.
	warm []int
	// stream is the request order, as pool indices; senders wrap around.
	stream []int32
	// snapshot is the outcome store serve restores at boot (nil when the
	// workload boots without one).
	snapshot *outcomes.Snapshot
}

// streamLen is the generated stream length; at the closed-loop rates of
// these workloads a run never wraps it more than a few times.
const streamLen = 1 << 17

// selectPool is the distinct-query pool of select-mix: four times the
// engine's 512-entry bind LRU, so popular queries hit the LRU while the
// tail forces re-binds.
const selectPool = 4 * engine.DefaultBindEntries

// selectZipfS is the popularity exponent of the select-mix stream.
const selectZipfS = 1.0

// strategies of select-mix: half the pool asks for the paper's
// discriminant, half for the profile-based prediction.
var selectStrategies = []string{"min-flops", "min-predicted"}

func queryRequest(q engine.Query) request {
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // an engine.Query always encodes
	}
	return request{path: pathQuery, body: body, queries: 1, query: q}
}

// distinctInstance draws instances from box until one not yet in seen
// (keyed with prefix) comes up.
func distinctInstance(rng *xrand.Rand, box expr.Box, seen map[string]bool, prefix string) expr.Instance {
	for {
		inst := box.Sample(rng)
		key := prefix + inst.String()
		if !seen[key] {
			seen[key] = true
			return inst
		}
	}
}

// zipfStream draws n pool ranks with probability ∝ 1/(rank+1)^s (s = 0
// is uniform). Pools are laid out so consecutive ranks cycle through the
// expression and strategy classes, so every class gets the same
// popularity mass whatever the seed, and the seed only picks instances.
func zipfStream(rng *xrand.Rand, pool, n int, s float64) []int32 {
	cdf := make([]float64, pool)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	out := make([]int32, n)
	for i := range out {
		u := rng.Float64() * sum
		out[i] = int32(sort.SearchFloat64s(cdf, u))
		if int(out[i]) >= pool {
			out[i] = int32(pool - 1)
		}
	}
	return out
}

// genSelectMix builds the select-mix pool: all six registered
// expressions × {min-flops, min-predicted}, instances drawn from the
// paper's box (20 ≤ d ≤ 1200), Zipf popularity.
func genSelectMix(seed uint64) (*inputs, error) {
	names := expr.Names()
	rng := xrand.NewLabeled(seed, "perfbench/select-mix")
	in := &inputs{}
	seen := map[string]bool{}
	for i := 0; i < selectPool; i++ {
		name := names[i%len(names)]
		x, err := expr.Lookup(name)
		if err != nil {
			return nil, err
		}
		strat := selectStrategies[(i/len(names))%len(selectStrategies)]
		inst := distinctInstance(rng, expr.PaperBox(x.Arity()), seen, name+strat)
		in.pool = append(in.pool, queryRequest(engine.Query{Expr: name, Instance: inst, Strategy: strat}))
		in.warm = append(in.warm, i)
	}
	in.stream = zipfStream(xrand.NewLabeled(seed, "perfbench/select-mix/stream"), selectPool, streamLen, selectZipfS)
	return in, nil
}

// Adaptive-store sizes: a full outcome store, a query pool near half of
// its points, and enough distinct feedback points, near the other half
// (see farPoints), that inserts (and so evictions) continue for the whole
// run.
const (
	storePoints      = engine.DefaultFeedbackEntries
	adaptivePool     = 2048
	feedbackPool     = 2 * engine.DefaultFeedbackEntries
	feedbackEvery    = 10   // every 10th request is a feedback post
	nearJitter       = 0.06 // relative per-dimension perturbation of "near" points
	snapshotAlgs     = 3    // outcome streams per stored point
	snapshotSimReps  = 3
	snapshotStreamID = "perfbench/adaptive-store"
)

// jitter perturbs each dimension by up to ±nearJitter, keeping it ≥ 1;
// the result stays within the adaptive radius (0.25 log units) of inst.
func jitter(rng *xrand.Rand, inst expr.Instance) expr.Instance {
	out := make(expr.Instance, len(inst))
	for i, d := range inst {
		f := 1 + nearJitter*(2*rng.Float64()-1)
		out[i] = max(1, int(math.Round(float64(d)*f)))
	}
	return out
}

// simSeconds is one simulated execution of alg: the seconds a caller
// running it on the simulated machine would feed back.
func simSeconds(sim *exec.Simulated, alg *expr.Algorithm, rep uint64) float64 {
	s := 0.0
	for _, t := range sim.TimeAlgorithm(alg, rep) {
		s += t
	}
	return s
}

// genAdaptiveStore builds the adaptive-store inputs: a snapshot of a
// full store whose outcomes come from the simulated machine (the
// min-FLOPs pick plus two other algorithms per point, three simulated
// runs each), adaptive queries near stored points, and feedback posts
// carrying simulated seconds near stored points no query reads.
func genAdaptiveStore(seed uint64) (*inputs, error) {
	names := expr.Names()
	sim := exec.NewDefaultSimulated()
	rng := xrand.NewLabeled(seed, snapshotStreamID)
	exprs := make([]expr.Expression, len(names))
	for i, n := range names {
		x, err := expr.Lookup(n)
		if err != nil {
			return nil, err
		}
		exprs[i] = x
	}
	snap := &outcomes.Snapshot{SchemaVersion: outcomes.SchemaVersion, Records: []outcomes.SnapshotRecord{}}
	points := make([]expr.Instance, storePoints)
	seen := map[string]bool{}
	for j := range points {
		x := exprs[j%len(exprs)]
		inst := distinctInstance(rng, expr.PaperBox(x.Arity()), seen, x.Name())
		points[j] = inst
		algs := x.Algorithms(inst)
		pick := []int{minFlopsIndex(algs)}
		for len(pick) < min(snapshotAlgs, len(algs)) {
			k := rng.Intn(len(algs))
			if !containsInt(pick, k) {
				pick = append(pick, k)
			}
		}
		sort.Ints(pick)
		// Records carry the registry name: restore resolves names through
		// the registry, which knows "chain" but not its canonical
		// "chain-ABCD".
		rec := outcomes.SnapshotRecord{Expr: names[j%len(names)], Instance: inst}
		for _, k := range pick {
			// Welford over the simulated repetitions, as the store
			// accumulates fed-back seconds.
			var mean, m2 float64
			for r := 1; r <= snapshotSimReps; r++ {
				s := simSeconds(sim, &algs[k], uint64(j*snapshotSimReps+r))
				d := s - mean
				mean += d / float64(r)
				m2 += d * (s - mean)
			}
			rec.Outcomes = append(rec.Outcomes, outcomes.SnapshotOutcome{
				Algorithm: algs[k].Index, Count: snapshotSimReps, Weight: snapshotSimReps, Mean: mean, M2: m2,
			})
		}
		snap.Records = append(snap.Records, rec)
	}
	in := &inputs{snapshot: snap}
	for i := 0; i < adaptivePool; i++ {
		j := i % storePoints
		name := names[j%len(names)]
		in.pool = append(in.pool, queryRequest(engine.Query{Expr: name, Instance: jitter(rng, points[j]), Strategy: "adaptive"}))
		in.warm = append(in.warm, i)
	}
	anchors := farPoints(points, adaptivePool, len(exprs))
	if len(anchors) == 0 {
		return nil, fmt.Errorf("adaptive-store: every stored point is near a queried one")
	}
	for i := 0; i < feedbackPool; i++ {
		j := anchors[i%len(anchors)]
		x := exprs[j%len(exprs)]
		inst := jitter(rng, points[j])
		algs := x.Algorithms(inst)
		k := rng.Intn(len(algs))
		fb := engine.Feedback{Expr: names[j%len(names)], Instance: inst, Algorithm: algs[k].Index,
			Seconds: simSeconds(sim, &algs[k], uint64(i))}
		body, err := json.Marshal(fb)
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, request{path: pathFeedback, body: body, fb: fb})
	}
	// Uniform popularity: an adaptive query's cost follows how many stored
	// points lie near it, so a Zipf head of a few queries would make the
	// run's cost a property of the seed.
	queries := zipfStream(xrand.NewLabeled(seed, snapshotStreamID+"/stream"), adaptivePool, streamLen, 0)
	in.stream = make([]int32, streamLen)
	for p := range in.stream {
		if p%feedbackEvery == feedbackEvery-1 {
			in.stream[p] = int32(adaptivePool + (p/feedbackEvery)%feedbackPool)
		} else {
			in.stream[p] = queries[p]
		}
	}
	return in, nil
}

// farMargin is how much farther than twice the adaptive radius, in log
// units, a feedback anchor lies from every queried point of its
// expression: room for the jitter of both points and its rounding.
const farMargin = 0.1

// farPoints returns the indices j ≥ queried of points (point j belongs to
// expression j mod exprs) that lie farther than 2·radius + farMargin in
// log-shape space from every point below queried of the same
// expression. Feedback jittered around them lands in records no adaptive
// query ever reads: each post inserts a record and evicts the oldest
// unread one, so the store stays full and every query's evidence stays
// what the snapshot holds. Feedback near queried points would instead
// add evidence run by run, and a query's cost would grow through the
// window with the number of posts a run got through.
func farPoints(points []expr.Instance, queried, exprs int) []int {
	limit := 2*selection.DefaultAdaptiveRadius + farMargin
	var out []int
	for j := queried; j < len(points); j++ {
		far := true
		for i := j % exprs; i < queried && far; i += exprs {
			far = logDist(points[i], points[j]) > limit
		}
		if far {
			out = append(out, j)
		}
	}
	return out
}

// logDist is the Euclidean distance of two instances in log-shape space,
// the outcome store's distance.
func logDist(a, b expr.Instance) float64 {
	sum := 0.0
	for k := range a {
		d := math.Log(float64(a[k])) - math.Log(float64(b[k]))
		sum += d * d
	}
	return math.Sqrt(sum)
}

func minFlopsIndex(algs []expr.Algorithm) int {
	best := 0
	for i := range algs {
		if algs[i].Flops() < algs[best].Flops() {
			best = i
		}
	}
	return best
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Batch-compute sizes: each request carries batchWidth distinct queries
// of one expression with every dimension in [batchOctave, 2·batchOctave),
// so the whole request lands in few shape-octave buckets and executes
// through fused mixed plans.
const (
	batchWidth    = 64
	batchOctave   = 32
	batchVariants = 4 // distinct request bodies per expression
)

// genBatchCompute builds the batch-compute pool: batchVariants bodies
// per registered expression, and a stream that rotates the expression
// request by request and picks the variant by seed.
func genBatchCompute(seed uint64) (*inputs, error) {
	names := expr.Names()
	rng := xrand.NewLabeled(seed, "perfbench/batch-compute")
	in := &inputs{}
	for v := 0; v < batchVariants; v++ {
		for _, name := range names {
			x, err := expr.Lookup(name)
			if err != nil {
				return nil, err
			}
			box := expr.UniformBox(x.Arity(), batchOctave, 2*batchOctave-1)
			seen := map[string]bool{}
			qs := make([]engine.Query, batchWidth)
			for k := range qs {
				qs[k] = engine.Query{Expr: name, Instance: distinctInstance(rng, box, seen, "")}
			}
			body, err := json.Marshal(struct {
				Queries []engine.Query `json:"queries"`
				Compute bool           `json:"compute"`
			}{qs, true})
			if err != nil {
				return nil, err
			}
			in.warm = append(in.warm, len(in.pool))
			in.pool = append(in.pool, request{path: pathBatch, body: body, queries: batchWidth, batch: qs})
		}
	}
	srng := xrand.NewLabeled(seed, "perfbench/batch-compute/stream")
	in.stream = make([]int32, streamLen)
	for p := range in.stream {
		in.stream[p] = int32(srng.Intn(batchVariants)*len(names) + p%len(names))
	}
	return in, nil
}
