package engine

import (
	"context"
	"reflect"
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

// TestQueryBatchFusedMeasurement pins the fused-execute mode: a batch
// query with a timed strategy in the small-instance regime measures
// through fused batch plans, producing an ordinary oracle record (not
// degraded, same candidate set as the per-instance path).
func TestQueryBatchFusedMeasurement(t *testing.T) {
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
		t.Fatalf("fused batch record %+v, want an undegraded oracle answer", rec)
	}
	if rec.NumAlgorithms != 5 || len(rec.Candidates) != 5 {
		t.Fatalf("record %+v", rec)
	}
	s := e.Stats()
	if s.FusedQueries != 1 {
		t.Errorf("fused_queries = %d, want 1 (one representative measured fused)", s.FusedQueries)
	}
	if s.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2", s.Coalesced)
	}
	if s.BatchPlans.Misses == 0 {
		t.Error("no batch plans were compiled for a fused measurement")
	}
	// The fused record's candidates agree with the per-instance path.
	direct, err := ask(context.Background(), e, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Candidates, rec.Candidates) {
		t.Errorf("fused candidates differ from per-instance:\n%+v\n%+v", rec.Candidates, direct.Candidates)
	}
	// Out of the fused regime (huge instance), batch oracle queries fall
	// back to per-instance measurement — but with the simulated-speed
	// check skipped here (measuring a 1200-dim instance is too slow for a
	// unit test), we only pin that the gate reports no width.
	big, err := e.Algorithms("aatb", expr.Instance{1200, 1200, 1200})
	if err != nil {
		t.Fatal(err)
	}
	if w := e.fuseWidth(big); w != 0 {
		t.Errorf("fuseWidth(1200-dim set) = %d, want 0", w)
	}
}

// slowBatchExecutor delays every fused repetition, so tests can make a
// deadline expire mid-fused-measurement.
type slowBatchExecutor struct {
	*exec.Measured
	delay time.Duration
}

func (s slowBatchExecutor) TimeAlgorithmBatch(alg *expr.Algorithm, count int, rep uint64) []float64 {
	time.Sleep(s.delay)
	return s.Measured.TimeAlgorithmBatch(alg, count, rep)
}

// TestQueryBatchFusedDeadlineDegrades pins that the degradation ladder
// survives the fused path: batch oracle queries whose deadline expires
// mid-fused-measurement answer min-flops with the degradation stamped,
// exactly like the per-instance path. Two distinct queries make the
// request a batch, so it takes the fused measurement path.
func TestQueryBatchFusedDeadlineDegrades(t *testing.T) {
	me := exec.NewMeasured()
	me.FlushBytes = 1 << 20
	e := New(Config{Executor: slowBatchExecutor{me, 30 * time.Millisecond}, Reps: 3})
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
	if s := e.Stats(); s.FusedQueries != 0 {
		t.Errorf("fused_queries = %d, want 0 (degraded answer is not fused)", s.FusedQueries)
	}
}
