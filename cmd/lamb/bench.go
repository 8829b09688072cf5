package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lamb/internal/blas"
	"lamb/internal/exec"
	"lamb/internal/report"
)

// cmdBench runs the fixed kernel/shape benchmark grid on the measured
// backend and optionally persists the report as BENCH_<n>.json. The JSON
// files form the repository's performance trajectory: every PR that
// touches a hot path can append a new BENCH file and diff GFLOP/s and
// allocs/op against the previous one.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "write the report to BENCH_<n>.json")
	outDir := fs.String("out", ".", "directory for the BENCH_<n>.json file")
	short := fs.Bool("short", false, "small smoke-test grid")
	reps := fs.Int("reps", 5, "timed repetitions per grid point")
	workersFlag := fs.Int("workers", 0, "kernel worker cap (0 = GOMAXPROCS)")
	algs := fs.Bool("algs", false, "also time whole algorithms of every registered expression through compiled plans")
	compare := fs.Bool("compare", false, "compare two BENCH_<n>.json files: lamb bench -compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two files: lamb bench -compare OLD.json NEW.json")
		}
		return compareBench(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *workersFlag > 0 {
		defer blas.SetMaxWorkers(blas.SetMaxWorkers(*workersFlag))
	}

	rep := exec.RunBenchGrid(*short, *reps, *algs)

	fmt.Printf("lamb bench — backend %s, GOMAXPROCS %d, workers %d, peak %.2f GFLOP/s\n\n",
		rep.Backend, rep.GoMaxProcs, rep.Workers, rep.PeakGFlops)
	rows := [][]string{{"kernel", "m", "n", "k", "median", "GFLOP/s", "best", "allocs/op"}}
	for _, r := range rep.Results {
		rows = append(rows, []string{
			kernelLabel(r),
			fmt.Sprint(r.M), fmt.Sprint(r.N), fmt.Sprint(r.K),
			fmt.Sprintf("%.3gs", r.Seconds),
			fmt.Sprintf("%.2f", r.GFlops),
			fmt.Sprintf("%.2f", r.BestGFlops),
			fmt.Sprint(r.AllocsPerOp),
		})
	}
	if err := report.Table(os.Stdout, rows); err != nil {
		return err
	}
	if len(rep.Algorithms) > 0 {
		fmt.Println()
		rows := [][]string{{"expr", "inst", "alg", "calls", "median", "GFLOP/s", "best", "allocs/rep"}}
		for _, a := range rep.Algorithms {
			rows = append(rows, []string{
				a.Expr, a.Inst, fmt.Sprint(a.Alg), fmt.Sprint(a.Calls),
				fmt.Sprintf("%.3gs", a.Seconds),
				fmt.Sprintf("%.2f", a.GFlops),
				fmt.Sprintf("%.2f", a.BestGFlops),
				fmt.Sprint(a.AllocsPerRep),
			})
		}
		if err := report.Table(os.Stdout, rows); err != nil {
			return err
		}
	}

	if !*jsonOut {
		return nil
	}
	path, err := nextBenchPath(*outDir)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// nextBenchPath returns dir/BENCH_<n>.json for the smallest n >= 1 that
// doesn't exist yet, so successive runs never overwrite earlier reports.
func nextBenchPath(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
}
