package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/mat"
	"lamb/internal/outcomes"
	"lamb/internal/profile"
)

// env is what one run shares: the workload, the prebuilt binary, and
// the generated inputs the servers receive.
type env struct {
	w           *workload
	in          *inputs
	lambBin     string
	profilePath string // "" when the workload boots without a profile
	profSet     *profile.Set
	profMeta    profile.Meta
	snapPath    string // generated outcome snapshot, "" when none
}

// newEngine builds an in-process engine configured exactly like the
// workload's serve: same backend, profile store, decay and restored
// snapshot. It is the reference answers are compared with, and the
// engine the traced replay drives.
func (v *env) newEngine() (*engine.Engine, error) {
	e, err := v.baseEngine()
	if err != nil || v.snapPath == "" {
		return e, err
	}
	if _, err := restoreInto(e, v.snapPath); err != nil {
		return nil, err
	}
	return e, nil
}

// baseEngine is newEngine before the snapshot restore.
func (v *env) baseEngine() (*engine.Engine, error) {
	cfg := engine.Config{OutcomeHalfLife: v.halfLife()}
	switch v.w.backend {
	case "sim":
		cfg.Executor = exec.NewDefaultSimulated()
	case "blas":
		cfg.Executor = exec.NewMeasured()
	default:
		return nil, fmt.Errorf("unknown backend %q", v.w.backend)
	}
	if v.profilePath != "" {
		cfg.Profiles, cfg.ProfileMeta = v.profSet, v.profMeta
	}
	return engine.New(cfg), nil
}

// halfLife is the outcome decay half-life serve runs with: disabled for
// the snapshot workload (-half-life 0), serve's one-hour default
// otherwise.
func (v *env) halfLife() time.Duration {
	if v.w.snapshot {
		return 0
	}
	return time.Hour
}

// restoreInto does what serve does at boot with -outcomes: read and
// validate the snapshot, restore it into the engine. Every record must
// restore.
func restoreInto(e *engine.Engine, path string) (int, error) {
	snap, err := outcomes.ReadFile(path)
	if err != nil {
		return 0, err
	}
	restored, skipped := e.RestoreOutcomes(snap)
	if skipped > 0 {
		return restored, fmt.Errorf("restoring %s: %d outcomes skipped", path, skipped)
	}
	return restored, nil
}

// expected is the reference answer to one pool request.
type expected struct {
	record []byte         // pathQuery: the reference record, JSON-encoded
	items  []expectedItem // pathBatch
}

type expectedItem struct {
	record     []byte
	rows, cols int
	fused      bool
	checksum   float64
}

// batchItem mirrors one /api/v1/batch result as serve encodes it.
type batchItem struct {
	*engine.Record
	Result *struct {
		Rows     int     `json:"rows"`
		Cols     int     `json:"cols"`
		Fused    bool    `json:"fused"`
		Checksum float64 `json:"checksum"`
	} `json:"result,omitempty"`
	Error string `json:"error,omitempty"`
}

// reference answers one pool request on the in-process engine.
func reference(e *engine.Engine, r *request) (*expected, error) {
	ctx := context.Background()
	switch r.path {
	case pathQuery:
		res := e.Do(ctx, engine.Request{Queries: []engine.Query{r.query}})
		if res[0].Err != nil {
			return nil, fmt.Errorf("reference %s%v: %w", r.query.Expr, r.query.Instance, res[0].Err)
		}
		rec, err := json.Marshal(res[0].Record)
		return &expected{record: rec}, err
	case pathBatch:
		res := e.Do(ctx, engine.Request{Queries: r.batch, Compute: true})
		exp := &expected{items: make([]expectedItem, len(res))}
		for i, x := range res {
			if x.Err != nil {
				return nil, fmt.Errorf("reference batch item %d: %w", i, x.Err)
			}
			rec, err := json.Marshal(x.Record)
			if err != nil {
				return nil, err
			}
			exp.items[i] = expectedItem{record: rec, rows: x.Output.Rows, cols: x.Output.Cols,
				fused: x.Fused, checksum: denseChecksum(x.Output)}
		}
		return exp, nil
	}
	return &expected{}, nil
}

// references answers every pool request listed in idxs.
func references(e *engine.Engine, in *inputs, idxs []int) (map[int]*expected, error) {
	out := make(map[int]*expected, len(idxs))
	for _, i := range idxs {
		exp, err := reference(e, &in.pool[i])
		if err != nil {
			return nil, err
		}
		out[i] = exp
	}
	return out, nil
}

// denseChecksum sums a matrix's elements column by column, exactly as
// serve's batch result block does.
func denseChecksum(d *mat.Dense) float64 {
	var sum float64
	for c := 0; c < d.Cols; c++ {
		for _, v := range d.Data[c*d.Stride : c*d.Stride+d.Rows] {
			sum += v
		}
	}
	return sum
}

var feedbackOK = []byte(`{"ok":true}`)

// checkFirst decodes a first answer and compares it with the reference:
// the record re-encoded must equal the reference record byte for byte,
// and batch checksums must be exactly equal.
func checkFirst(r *request, exp *expected, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	switch r.path {
	case pathQuery:
		var rec engine.Record
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("decoding record: %w", err)
		}
		got, err := json.Marshal(&rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, exp.record) {
			return fmt.Errorf("record for %s%v differs from the reference:\n got %s\nwant %s", r.query.Expr, r.query.Instance, got, exp.record)
		}
	case pathBatch:
		var resp struct {
			Results []batchItem `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding batch: %w", err)
		}
		if len(resp.Results) != len(exp.items) {
			return fmt.Errorf("batch answered %d items, want %d", len(resp.Results), len(exp.items))
		}
		for i, it := range resp.Results {
			want := exp.items[i]
			if it.Error != "" || it.Record == nil || it.Result == nil {
				return fmt.Errorf("batch item %d: no computed record (error %q)", i, it.Error)
			}
			got, err := json.Marshal(it.Record)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want.record) {
				return fmt.Errorf("batch item %d record differs from the reference", i)
			}
			if it.Result.Rows != want.rows || it.Result.Cols != want.cols || it.Result.Fused != want.fused ||
				it.Result.Checksum != want.checksum {
				return fmt.Errorf("batch item %d result %+v, want rows %d cols %d fused %v checksum %v",
					i, *it.Result, want.rows, want.cols, want.fused, want.checksum)
			}
		}
	case pathFeedback:
		if !bytes.Equal(bytes.TrimSpace(body), feedbackOK) {
			return fmt.Errorf("feedback answered %s", bytes.TrimSpace(body))
		}
	}
	return nil
}

// checkAdaptive checks an adaptive answer given while feedback changes
// the store: it must answer the asked query with the adaptive strategy,
// select an algorithm of the set, and rank every candidate with win
// probabilities summing to 1.
func checkAdaptive(q *engine.Query, body []byte) error {
	var rec engine.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return fmt.Errorf("decoding record: %w", err)
	}
	if rec.Expr != q.Expr || !slices.Equal(rec.Instance, q.Instance) {
		return fmt.Errorf("answered %s%v for %s%v", rec.Expr, rec.Instance, q.Expr, q.Instance)
	}
	if rec.Strategy != "adaptive" || rec.Degraded != "" {
		return fmt.Errorf("strategy %q degraded %q, want an undegraded adaptive answer", rec.Strategy, rec.Degraded)
	}
	n := rec.NumAlgorithms
	if rec.Selected.Index < 1 || rec.Selected.Index > n || len(rec.Candidates) != n || len(rec.Ranking) != n {
		return fmt.Errorf("selected %d of %d with %d candidates and %d ranked", rec.Selected.Index, n, len(rec.Candidates), len(rec.Ranking))
	}
	cands := make([]int, n)
	ranked := make([]int, n)
	sum := 0.0
	for i := range rec.Ranking {
		cands[i] = rec.Candidates[i].Index
		ranked[i] = rec.Ranking[i].Alg
		p := rec.Ranking[i].PBest
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("p_best %v out of [0, 1]", p)
		}
		sum += p
	}
	slices.Sort(cands)
	slices.Sort(ranked)
	if !slices.Equal(cands, ranked) || !slices.Contains(cands, rec.Selected.Index) {
		return fmt.Errorf("ranking %v does not cover candidates %v (selected %d)", ranked, cands, rec.Selected.Index)
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("p_best sums to %v", sum)
	}
	return nil
}
