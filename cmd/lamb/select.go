package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"lamb"
	"lamb/internal/engine"
	"lamb/internal/report"
)

// cmdSelect answers selection queries through the engine. Two modes:
//
//   - with -instance, a single query: "which algorithm for these
//     sizes?" The answer is the engine's selection record — rendered as
//     a table, or with -json as the same machine-readable record the
//     `lamb serve` endpoint emits.
//   - without -instance, the strategy-evaluation study: the paper's
//     MinFlops baseline, the proposed FLOPs+profiles discriminant, and
//     the measuring oracle compared by regret over random instances
//     (the paper's concluding conjecture, operationalised).
func cmdSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	c := registerCommon(fs)
	instances := fs.Int("instances", 150, "number of random instances (evaluation mode)")
	gridPoints := fs.Int("grid", 8, "profile grid points per dimension")
	instFlag := fs.String("instance", "", "query one instance, e.g. 100,200,300 (query mode)")
	strategy := fs.String("strategy", engine.DefaultStrategy, "query-mode strategy: min-flops, min-predicted, adaptive, or oracle")
	profilePath := fs.String("profile", "", "persisted kernel-profile store (skips profile measurement)")
	jsonOut := fs.Bool("json", false, "emit the machine-readable selection record (query mode)")
	deadline := fs.Duration("deadline", 0, "query-mode deadline (0 = none; timed strategies degrade to min-flops when it expires)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *instFlag != "" {
		return selectQuery(c, *instFlag, *strategy, *profilePath, *gridPoints, *jsonOut, *deadline)
	}
	if *jsonOut {
		return fmt.Errorf("-json requires -instance (the record describes one query)")
	}
	return selectEvaluate(c, *instances, *gridPoints, *profilePath)
}

// selectQuery answers one instance query through the engine. Profiles
// come from a persisted store when -profile is given; otherwise the
// profile-backed strategies measure once on the same backend the engine
// then serves from.
func selectQuery(c *commonFlags, instFlag, strategy, profilePath string, gridPoints int, jsonOut bool, deadline time.Duration) error {
	ex, err := c.executor()
	if err != nil {
		return err
	}
	var profiles *lamb.ProfileSet
	var meta lamb.ProfileMeta
	switch {
	case profilePath != "":
		profiles, meta, err = loadProfileStore(profilePath, ex.Name())
		if err != nil {
			return err
		}
	case strategy == "min-predicted" || strategy == "adaptive":
		fmt.Fprintf(os.Stderr, "measuring kernel profiles (%d^3 grid per kernel)...\n", gridPoints)
		t := lamb.NewTimer(ex)
		t.Reps = c.reps
		profiles = lamb.MeasureProfiles(t, gridPoints)
		meta = measuredMeta(ex, c.reps, gridPoints)
	}
	eng := engine.New(engine.Config{Executor: ex, Reps: c.reps, Profiles: profiles, ProfileMeta: meta})
	x, err := eng.Expression(c.exprName)
	if err != nil {
		return err
	}
	inst, err := parseInstance(instFlag, x.Arity())
	if err != nil {
		return err
	}
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	res := eng.Do(ctx, engine.Request{Queries: []engine.Query{{Expr: c.exprName, Instance: inst, Strategy: strategy}}})
	rec := res[0].Record
	if res[0].Err != nil {
		return res[0].Err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}
	fmt.Printf("%s %v (strategy %s, backend %s): algorithm %d of %d\n",
		rec.Expr, rec.Instance, rec.Strategy, rec.Backend, rec.Selected.Index, rec.NumAlgorithms)
	anomaly := ""
	if rec.Anomaly {
		anomaly = "  ANOMALY: evidence contradicts the min-FLOPs pick"
	}
	fmt.Printf("confidence %.3f (probability the top pick is actually fastest vs the runner-up)%s\n\n", rec.Confidence, anomaly)
	// p_best comes from the ranking, which orders algorithms by posterior
	// mean; the table keeps enumeration order, so join on the index.
	pBest := make(map[int]float64, len(rec.Ranking))
	for _, entry := range rec.Ranking {
		pBest[entry.Alg] = entry.PBest
	}
	rows := [][]string{{"#", "algorithm", "FLOPs", "p(best)", "selected"}}
	for _, cand := range rec.Candidates {
		mark := ""
		if cand.Index == rec.Selected.Index {
			mark = "<=="
		}
		rows = append(rows, []string{
			fmt.Sprint(cand.Index), cand.Name, fmt.Sprintf("%.0f", cand.Flops),
			fmt.Sprintf("%.3f", pBest[cand.Index]), mark,
		})
	}
	return report.Table(os.Stdout, rows)
}

// selectEvaluate runs the strategy-regret study through the engine's
// expression and timer (so repeated instances bind once).
func selectEvaluate(c *commonFlags, instances, gridPoints int, profilePath string) error {
	p, err := newPipeline(c)
	if err != nil {
		return err
	}
	var profiles *lamb.ProfileSet
	if profilePath != "" {
		profiles, _, err = loadProfileStore(profilePath, p.timer.Exec.Name())
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "measuring kernel profiles (%d^3 grid per kernel)...\n", gridPoints)
		profiles = lamb.MeasureProfiles(p.timer, gridPoints)
	}
	strategies := []lamb.Strategy{
		lamb.MinFlops{},
		lamb.MinPredicted{Profiles: profiles},
		lamb.Oracle{Timer: p.timer},
	}
	reports := lamb.EvaluateStrategies(p.e, p.timer, strategies, lamb.SelectionConfig{
		Box:       c.box(p.e.Arity()),
		Instances: instances,
		Seed:      c.seed,
	})
	fmt.Printf("Algorithm selection on %s (%d instances, backend %s)\n\n", p.e.Name(), instances, c.backend)
	rows := [][]string{{"strategy", "optimal picks", "mean regret", "max regret", "worst instance"}}
	for _, r := range reports {
		rows = append(rows, []string{
			r.Strategy,
			fmt.Sprintf("%d/%d", r.OptimalPicks, r.Instances),
			fmtPct(r.Regret.Mean()),
			fmtPct(r.Regret.Max),
			r.WorstInstance.String(),
		})
	}
	return report.Table(os.Stdout, rows)
}
