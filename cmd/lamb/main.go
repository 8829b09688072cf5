// Command lamb regenerates every table and figure of the paper
// "FLOPs as a Discriminant for Dense Linear Algebra Algorithms"
// (ICPP 2022) — see EXPERIMENTS.md for the recorded results.
//
// Usage:
//
//	lamb <subcommand> [flags]
//
// Subcommands:
//
//	figure1    kernel efficiency vs size (paper Figure 1)
//	enumerate  algorithm sets and FLOP counts (Figures 3 and 5)
//	exp1       random search for anomalies (Figures 6 and 9)
//	exp2       regions around anomalies (Figures 7, 8, 10, 11)
//	exp3       prediction from benchmarks (Tables 1 and 2)
//	select     algorithm-selection strategies (paper §5 conjecture);
//	           -instance queries the engine for one instance, -json
//	           emits the machine-readable selection record, -profile
//	           loads a persisted profile store instead of re-measuring
//	profile    measure the kernel grid once and write a schema-versioned
//	           PROFILE.json that serve/select load with -profile
//	serve      HTTP JSON selection endpoint over the cached query engine;
//	           -profile enables min-predicted and adaptive strategies,
//	           POST /api/feedback records measured outcomes
//	route      fault-tolerant shard router over -backends serve URLs:
//	           consistent hashing by (expression, shape octave), health
//	           probes, circuit breakers, retries with backoff, optional
//	           hedging (-hedge-after) and outcome gossip (-merge-every)
//	bench      kernel benchmark grid (BENCH_<n>.json with -json; whole-
//	           algorithm timings with -algs; diff two reports with
//	           -compare OLD.json NEW.json)
//	loadtest   load generator against a running serve or route: closed
//	           loop by default, coordinated-omission-free open loop with
//	           -rate N (uniform or Poisson arrivals); honors Retry-After
//	           on 503; latency percentiles, throughput, cache deltas
//	all        the full paper pipeline for both of the paper's expressions
//
// The generated expressions extend the study beyond the paper: lstsq
// (X := (A·Aᵀ+R)⁻¹·A·B), the Gram-chain hybrid aatbc (X := A·Aᵀ·B·C),
// and gls (X := (A·Aᵀ+R)⁻¹·A·B·C). Run them with
// `lamb exp1|exp2|exp3|enumerate -expr <name>`.
//
// Common flags (accepted by the experiment subcommands):
//
//	-expr NAME         expression to study: chain, aatb, lstsq, aatbc, gls (default chain)
//	-backend sim|blas  simulated machine or measured pure-Go BLAS (default sim)
//	-scale paper|quick paper-scale or smoke-test configuration (default quick)
//	-seed N            master seed (default 42)
//	-reps N            timing repetitions, at least 1 (default 10, the paper's value)
//	-out DIR           also write raw CSV data into DIR
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lamb"
	"lamb/internal/engine"
	"lamb/internal/profile"
	"lamb/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "figure1":
		err = cmdFigure1(args)
	case "enumerate":
		err = cmdEnumerate(args)
	case "exp1":
		err = cmdExp1(args)
	case "exp2":
		err = cmdExp2(args)
	case "exp3":
		err = cmdExp3(args)
	case "select":
		err = cmdSelect(args)
	case "profile":
		err = cmdProfile(args)
	case "serve":
		err = cmdServe(args)
	case "route":
		err = cmdRoute(args)
	case "bench":
		err = cmdBench(args)
	case "loadtest":
		err = cmdLoadtest(args)
	case "all":
		err = cmdAll(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lamb: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamb %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lamb <subcommand> [flags]

subcommands:
  figure1    kernel efficiency vs size (Figure 1)
  enumerate  algorithm sets and FLOP counts (Figures 3, 5)
  exp1       random search for anomalies (Figures 6, 9)
  exp2       regions around anomalies (Figures 7, 8, 10, 11)
  exp3       prediction from benchmarks (Tables 1, 2)
  select     algorithm-selection strategies; -instance picks one
             algorithm through the engine (-json for the record,
             -profile loads a persisted profile store)
  profile    measure the kernel grid once, write PROFILE.json
  serve      HTTP JSON selection endpoint over the query engine
             (-profile serves min-predicted/adaptive, /api/feedback
             records outcomes)
  route      shard router over -backends serve URLs: consistent
             hashing, health probes, breakers, retries, hedging, and
             outcome gossip; degrades to a local min-flops engine
  bench      kernel benchmark grid (writes BENCH_<n>.json with -json;
             -algs times whole algorithms; -compare OLD NEW diffs
             reports)
  loadtest   drive a running serve/route with query/batch traffic and
             report latency percentiles, throughput, and cache hit
             rates; -rate N switches to an open-loop arrival schedule
             (coordinated-omission-free), 503 Retry-After is honored
  all        full paper pipeline

run 'lamb <subcommand> -h' for flags`)
}

// commonFlags holds the flags shared by experiment subcommands. serve
// and route register only the ones they read.
type commonFlags struct {
	exprName string
	backend  string
	scale    string
	seed     uint64
	reps     int
	workers  int
	outDir   string
}

func registerCommon(fs *flag.FlagSet) *commonFlags {
	c := registerBackend(fs)
	c.registerReps(fs)
	fs.StringVar(&c.exprName, "expr", "chain",
		"expression: "+strings.Join(lamb.Expressions(), ", "))
	fs.StringVar(&c.scale, "scale", "quick", "scale: quick or paper")
	fs.Uint64Var(&c.seed, "seed", 42, "master seed")
	fs.IntVar(&c.workers, "workers", 0, "parallel evaluation workers (sim backend only; 0 = GOMAXPROCS)")
	fs.StringVar(&c.outDir, "out", "", "directory for raw CSV output (optional)")
	return c
}

// registerBackend registers -backend alone.
func registerBackend(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.backend, "backend", "sim", "backend: sim (simulated machine) or blas (measured pure-Go BLAS)")
	return c
}

// registerReps registers -reps.
func (c *commonFlags) registerReps(fs *flag.FlagSet) {
	fs.IntVar(&c.reps, "reps", 10, "timing repetitions per test")
}

// parse parses the arguments of a command that registered -reps and
// rejects a repetition count below 1, which would otherwise be
// replaced by the default unseen while provenance records the flag.
func (c *commonFlags) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.reps < 1 {
		return fmt.Errorf("-reps must be at least 1 (got %d)", c.reps)
	}
	return nil
}

func (c *commonFlags) expression() (lamb.Expression, error) {
	return lamb.LookupExpression(c.exprName)
}

func (c *commonFlags) executor() (lamb.Executor, error) {
	switch c.backend {
	case "sim":
		return lamb.NewSimExecutor(), nil
	case "blas":
		return lamb.NewMeasuredExecutor(), nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want sim or blas)", c.backend)
	}
}

func (c *commonFlags) timer() (*lamb.Timer, error) {
	e, err := c.executor()
	if err != nil {
		return nil, err
	}
	t := lamb.NewTimer(e)
	t.Reps = c.reps
	return t, nil
}

// engine builds the selection engine for the chosen backend. The
// experiment pipeline, `select`, and `serve` all route through one
// engine, so enumeration and binding are cached in one place. A
// non-positive capacity falls back to the engine default.
func (c *commonFlags) engine(bindEntries int) (*engine.Engine, error) {
	return c.engineWithProfiles(bindEntries, "", 0, 0)
}

// engineWithProfiles is engine plus a persisted profile store: when
// profilePath is non-empty the store is loaded and the engine serves
// the profile-backed strategies (min-predicted, adaptive) without any
// serve-time measurement, carrying the store's provenance into stats
// and records. outcomeHalfLife configures the feedback store's weight
// decay (0 disables it); exploreRate enables Thompson-sampling
// exploration on adaptive queries (0 — the default — never explores).
func (c *commonFlags) engineWithProfiles(bindEntries int, profilePath string, outcomeHalfLife time.Duration, exploreRate float64) (*engine.Engine, error) {
	e, err := c.executor()
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{
		Executor:        e,
		Reps:            c.reps,
		BindEntries:     bindEntries,
		OutcomeHalfLife: outcomeHalfLife,
		ExploreRate:     exploreRate,
	}
	if profilePath != "" {
		set, meta, err := loadProfileStore(profilePath, e.Name())
		if err != nil {
			return nil, err
		}
		cfg.Profiles = set
		cfg.ProfileMeta = meta
	}
	return engine.New(cfg), nil
}

// loadProfileStore loads a persisted profile store for prediction on
// the named backend. A store measured on one backend predicts garbage
// for another (simulated rates say nothing about the measured BLAS),
// so a mismatch warns — rather than refuses: loading a profile from
// another machine of the same backend family is a deliberate
// cross-machine study. Shared by serve and both select modes.
func loadProfileStore(path, backendName string) (*profile.Set, profile.Meta, error) {
	set, meta, err := profile.ReadFile(path)
	if err != nil {
		return nil, profile.Meta{}, err
	}
	if meta.Backend != "" && meta.Backend != backendName {
		fmt.Fprintf(os.Stderr, "lamb: warning: profile store %s was measured on backend %q but predicting for %q — predictions may not transfer\n",
			path, meta.Backend, backendName)
	}
	return set, meta, nil
}

// box returns the search space: the paper's box on the sim backend, a
// small box on the measured backend (pure-Go kernels at size 1200 would
// make the paper box prohibitively slow).
func (c *commonFlags) box(arity int) lamb.Box {
	if c.backend == "blas" {
		return lamb.UniformBox(arity, 16, 192)
	}
	return lamb.PaperBox(arity)
}

// exp1Target returns (target anomalies, max samples) per scale/expression.
func (c *commonFlags) exp1Target(exprName string) (int, int) {
	if c.backend == "blas" {
		return 3, 400
	}
	if c.scale == "paper" {
		if exprName == "chain" {
			return 100, 200_000
		}
		return 1000, 40_000
	}
	if exprName == "chain" {
		return 10, 30_000
	}
	return 50, 2_000
}

// exp2Anomalies caps how many anomalies are traversed in Experiment 2.
func (c *commonFlags) exp2Anomalies() int {
	if c.backend == "blas" {
		return 2
	}
	if c.scale == "paper" {
		return 1 << 30 // all
	}
	return 15
}

// writeCSV writes rows to dir/name if -out was given.
func (c *commonFlags) writeCSV(name string, rows [][]string) error {
	if c.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.outDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.CSV(f, rows); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", filepath.Join(c.outDir, name))
	return nil
}

// parseInstance parses "100,200,300" into an Instance.
func parseInstance(s string, arity int) (lamb.Instance, error) {
	parts := strings.Split(s, ",")
	if len(parts) != arity {
		return nil, fmt.Errorf("instance %q has %d dims, want %d", s, len(parts), arity)
	}
	inst := make(lamb.Instance, arity)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		inst[i] = v
	}
	return inst, nil
}

func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
