package engine

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lamb/internal/exec"
	"lamb/internal/expr"
)

// TestQueryBatchCoalescesDuplicates pins the within-batch dedup:
// identical (expression, instance, strategy) queries in one batch share
// one record — the duplicates never enter the pipeline, but still count
// as answered queries.
func TestQueryBatchCoalescesDuplicates(t *testing.T) {
	e := New(Config{})
	qa := Query{Expr: "aatb", Instance: expr.Instance{16, 8, 8}}
	qb := Query{Expr: "aatb", Instance: expr.Instance{32, 8, 8}}
	qc := Query{Expr: "chain", Instance: expr.Instance{8, 8, 8, 8, 8}}
	res := e.Do(context.Background(), Request{Queries: []Query{qa, qb, qa, qa, qb, qc}})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	// Duplicates share the representative's record, pointer-identically.
	if res[2].Record != res[0].Record || res[3].Record != res[0].Record {
		t.Error("duplicate aatb queries did not share the representative's record")
	}
	if res[4].Record != res[1].Record {
		t.Error("duplicate query of the second instance did not share its record")
	}
	if res[5].Record == res[0].Record || res[1].Record == res[0].Record {
		t.Error("distinct queries improperly shared a record")
	}
	s := e.Stats()
	if s.Coalesced != 3 {
		t.Errorf("coalesced = %d, want 3", s.Coalesced)
	}
	if s.Queries != 6 {
		t.Errorf("queries = %d, want 6 (coalesced queries still count)", s.Queries)
	}
	// Differing strategies must NOT coalesce.
	qo := qa
	qo.Strategy = "min-flops" // explicit default == implicit default: coalesces
	res = e.Do(context.Background(), Request{Queries: []Query{qa, qo}})
	if res[1].Record != res[0].Record {
		t.Error("explicit default strategy did not coalesce with implicit")
	}
}

// TestQueryBatchOracleMeasuresPerInstance pins that a batch oracle
// query measures per instance: three identical queries coalesce into
// one measurement, and the record equals what the same query asked
// alone produces (same candidates, undegraded).
func TestQueryBatchOracleMeasuresPerInstance(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured(), Reps: 2})
	q := Query{Expr: "aatb", Instance: expr.Instance{12, 16, 8}, Strategy: "oracle"}
	res := e.Do(context.Background(), Request{Queries: []Query{q, q, q}})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	rec := res[0].Record
	if rec.Strategy != "oracle" || rec.Degraded != "" {
		t.Fatalf("batch record %+v, want an undegraded oracle answer", rec)
	}
	if rec.NumAlgorithms != 5 || len(rec.Candidates) != 5 {
		t.Fatalf("record %+v", rec)
	}
	s := e.Stats()
	if s.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2", s.Coalesced)
	}
	checkSlabs(t, e)
	direct, err := ask(context.Background(), e, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Candidates, rec.Candidates) {
		t.Errorf("batch candidates differ from a single query's:\n%+v\n%+v", rec.Candidates, direct.Candidates)
	}
}

// countingExecutor is the measured executor with its per-instance
// repetitions counted.
type countingExecutor struct {
	*exec.Measured
	reps atomic.Int64
}

func (c *countingExecutor) TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64 {
	c.reps.Add(1)
	return c.Measured.TimeAlgorithm(alg, rep)
}

// TestEngineDoFusedRule pins that no request measures fused: a single
// query, two distinct queries and a Compute batch of one each measure
// every oracle query with Reps per-instance repetitions per algorithm.
// Distinct queries on a fresh engine, so nothing is coalesced or
// deduplicated.
func TestEngineDoFusedRule(t *testing.T) {
	const reps = 2
	qa := Query{Expr: "aatb", Instance: expr.Instance{12, 16, 8}, Strategy: "oracle"}
	qb := Query{Expr: "aatb", Instance: expr.Instance{16, 12, 8}, Strategy: "oracle"}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"single query", Request{Queries: []Query{qa}}},
		{"two distinct queries", Request{Queries: []Query{qa, qb}}},
		{"compute batch of one", Request{Queries: []Query{qa}, Compute: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ce := &countingExecutor{Measured: exec.NewMeasured()}
			e := New(Config{Executor: ce, Reps: reps})
			want := int64(0)
			for i, r := range e.Do(context.Background(), tc.req) {
				if r.Err != nil {
					t.Fatalf("query %d: %v", i, r.Err)
				}
				if r.Record.Strategy != "oracle" || r.Record.Degraded != "" {
					t.Fatalf("query %d: record %+v, want an undegraded oracle answer", i, r.Record)
				}
				want += int64(reps * r.Record.NumAlgorithms)
			}
			if got := ce.reps.Load(); got != want {
				t.Errorf("%d per-instance repetitions, want reps × algorithms = %d", got, want)
			}
			s := e.Stats()
			if s.Coalesced != 0 || s.Deduped != 0 {
				t.Errorf("coalesced = %d, deduped = %d, want 0 and 0", s.Coalesced, s.Deduped)
			}
		})
	}
}

// TestQueryBatchFusedDeadlineDegrades pins that the degradation ladder
// holds for batched timed queries: two distinct oracle queries of one
// request whose deadline expires mid-measurement both answer min-flops
// with the degradation stamped, exactly like a single query. The slow
// repetitions run on the measured backend (see slowExecutor).
func TestQueryBatchFusedDeadlineDegrades(t *testing.T) {
	me := exec.NewMeasured()
	me.FlushBytes = 1 << 20
	e := New(Config{Executor: slowExecutor{me, 30 * time.Millisecond}, Reps: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res := e.Do(ctx, Request{Queries: []Query{
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}, Strategy: "oracle"},
		{Expr: "aatb", Instance: expr.Instance{16, 12, 8}, Strategy: "oracle"},
	}})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: deadline mid-measurement should degrade, got error %v", i, r.Err)
		}
		if rec := r.Record; rec.Strategy != "min-flops" || rec.Requested != "oracle" || rec.Degraded != DegradedDeadline {
			t.Fatalf("query %d: degraded record not stamped: %+v", i, rec)
		}
	}
}
