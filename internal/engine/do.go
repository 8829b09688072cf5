package engine

// Do is the engine's single entry point and its only query path: every
// request — one query or many, with or without Compute — is answered
// as a batch, and the deadline is whatever the caller's context carries.

import (
	"cmp"
	"context"
	"runtime"
	"strings"

	"lamb/internal/ir"
	"lamb/internal/mat"
	"lamb/internal/par"
)

// Request describes one Do call: which queries to answer and how.
type Request struct {
	// Queries are the selection requests; a query that names no
	// strategy uses DefaultStrategy, the paper's min-FLOPs discriminant.
	// Identical queries of one request are coalesced. Timed strategies
	// measure per instance whether a query arrives alone or in a batch,
	// so a record never depends on the request that carried it.
	Queries []Query
	// Compute additionally executes each query's selected algorithm on
	// operands filled from the engine's deterministic stream and returns
	// its output. Every query runs alone, so its output does not depend
	// on the other queries of the request.
	Compute bool
}

// Result is one query's answer: its record, and — for Compute requests
// — the computed output.
type Result struct {
	Record *Record
	// Output is the selected algorithm's result on the engine-filled
	// operands, a caller-owned view into one slab that the request's
	// outputs share; nil without Compute or when Err is set.
	Output *mat.Dense
	Err    error
	// Fused is always false: every computed query runs alone. It exists
	// only for perfbench's replay.
	Fused bool
}

// Do answers the request under the caller's context and returns one
// Result per query, in request order. The context's deadline governs
// everything downstream: timed strategies degrade to a FLOPs-only
// answer when it expires mid-measurement, and an already-expired
// context fails the queries immediately.
//
// Identical (expression, instance, strategy) queries within the request
// are coalesced before dispatch: the first occurrence answers,
// duplicates share its record without entering the pipeline (counted in
// Stats.Coalesced; cross-request duplicates are still deduplicated by
// the singleflight in query). Distinct queries are answered
// concurrently. With Compute, the answered queries are then executed
// (see compute).
func (e *Engine) Do(ctx context.Context, req Request) []Result {
	qs := req.Queries
	out := make([]Result, len(qs))
	keys := make([]queryKey, len(qs))
	rep := make([]int, len(qs)) // rep[i] = index of i's representative
	uniq := make([]int, 0, len(qs))
	firstOf := make(map[queryKey]int, len(qs))
	for i, q := range qs {
		keys[i] = queryKey{expr: strings.ToLower(q.Expr), inst: q.Instance.Key(), strat: cmp.Or(q.Strategy, DefaultStrategy)}
		j, ok := firstOf[keys[i]]
		if !ok {
			j = i
			firstOf[keys[i]] = i
			uniq = append(uniq, i)
		}
		rep[i] = j
	}
	sets := make([]*boundSet, len(qs)) // the set each record was answered from
	par.For(len(uniq), max(2*runtime.GOMAXPROCS(0), 4), func(k int) {
		i := uniq[k]
		out[i].Record, sets[i], out[i].Err = e.query(ctx, qs[i], keys[i])
	})
	for i := range qs {
		if rep[i] != i {
			e.queries.Add(1) // a coalesced query is still an answered query
			e.coalesced.Add(1)
			out[i], sets[i] = out[rep[i]], sets[rep[i]]
		}
	}
	if req.Compute {
		e.compute(sets, out)
	}
	return out
}

// queryKey identifies a query for coalescing and the singleflight: the
// case-folded expression, the instance and the normalised strategy.
type queryKey struct {
	expr  string
	inst  ir.Key
	strat string
}

// query answers one distinct query under the caller's context; key is
// its singleflight key and carries its normalised strategy. Concurrent
// identical queries are deduplicated: one computes, the rest wait and
// share its record — but each waiter honours its own context, so one
// slow leader cannot hold a cancelled request hostage. A context that
// expires mid-measurement degrades timed strategies to a FLOPs-only
// answer (see answer); a context that is already done fails
// immediately. One flight serves a query whether it came alone or in a
// batch: timed strategies measure per instance either way.
func (e *Engine) query(ctx context.Context, q Query, key queryKey) (*Record, *boundSet, error) {
	e.queries.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	e.sfMu.Lock()
	if f, ok := e.inflight[key]; ok {
		e.sfMu.Unlock()
		e.deduped.Add(1)
		select {
		case <-f.done:
			return f.rec, f.set, f.err
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[key] = f
	e.sfMu.Unlock()

	f.rec, f.set, f.err = e.answer(ctx, q, key.strat)

	e.sfMu.Lock()
	delete(e.inflight, key)
	e.sfMu.Unlock()
	close(f.done)
	return f.rec, f.set, f.err
}
