package main

// lamb bench -compare OLD.json NEW.json — diff two BENCH_<n>.json
// reports point by point, so the committed benchmark trajectory is
// actually reviewable: per-point GFLOP/s deltas, added/removed points,
// and a nonzero exit when any common point regresses by more than 10%.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lamb/internal/exec"
	"lamb/internal/report"
)

// regressionTolerance is the fractional median-GFLOP/s drop on a common
// point beyond which the comparison fails.
const regressionTolerance = 0.10

// benchPointKey identifies a kernel grid point across reports.
type benchPointKey struct {
	Kernel         string
	M, N, K        int
	TransA, TransB bool
}

// algPointKey identifies a whole-algorithm point across reports.
type algPointKey struct {
	Expr string
	Inst string
	Alg  int
}

func benchKey(r exec.BenchResult) benchPointKey {
	return benchPointKey{Kernel: r.Kernel, M: r.M, N: r.N, K: r.K, TransA: r.TransA, TransB: r.TransB}
}

// kernelLabel renders a grid point's kernel name with its transposition
// pattern, e.g. "gemm(Aᵀ)".
func kernelLabel(r exec.BenchResult) string {
	switch {
	case r.TransA && r.TransB:
		return r.Kernel + "(AᵀBᵀ)"
	case r.TransA:
		return r.Kernel + "(Aᵀ)"
	case r.TransB:
		return r.Kernel + "(Bᵀ)"
	default:
		return r.Kernel
	}
}

// loadBench reads a report. Sections BenchReport no longer has, such as
// the fused-batch points BENCH_5 to BENCH_8 carry, are ignored.
func loadBench(path string) (*exec.BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep exec.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareBench prints the per-point deltas between two reports and
// returns an error (nonzero exit) if any common point regressed by more
// than regressionTolerance on median GFLOP/s.
func compareBench(w io.Writer, oldPath, newPath string) error {
	oldRep, err := loadBench(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadBench(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bench compare: %s (peak %.2f) -> %s (peak %.2f)\n\n",
		oldPath, oldRep.PeakGFlops, newPath, newRep.PeakGFlops)

	oldPoints := make(map[benchPointKey]exec.BenchResult, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldPoints[benchKey(r)] = r
	}
	var regressions []string
	rows := [][]string{{"kernel", "m", "n", "k", "old GF", "new GF", "delta", ""}}
	common := 0
	for _, nr := range newRep.Results {
		or, ok := oldPoints[benchKey(nr)]
		if !ok {
			rows = append(rows, []string{kernelLabel(nr), fmt.Sprint(nr.M), fmt.Sprint(nr.N), fmt.Sprint(nr.K),
				"-", fmt.Sprintf("%.2f", nr.GFlops), "", "added"})
			continue
		}
		common++
		delete(oldPoints, benchKey(nr))
		if or.GFlops <= 0 {
			// A zero baseline (truncated or hand-edited report) can't be
			// compared; flag it instead of printing a misleading +0.0%.
			rows = append(rows, []string{kernelLabel(nr), fmt.Sprint(nr.M), fmt.Sprint(nr.N), fmt.Sprint(nr.K),
				fmt.Sprintf("%.2f", or.GFlops), fmt.Sprintf("%.2f", nr.GFlops), "", "no baseline"})
			continue
		}
		delta := nr.GFlops/or.GFlops - 1
		note := ""
		if delta < -regressionTolerance {
			note = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s m=%d n=%d k=%d: %.2f -> %.2f GFLOP/s (%.1f%%)",
				kernelLabel(nr), nr.M, nr.N, nr.K, or.GFlops, nr.GFlops, 100*delta))
		}
		rows = append(rows, []string{kernelLabel(nr), fmt.Sprint(nr.M), fmt.Sprint(nr.N), fmt.Sprint(nr.K),
			fmt.Sprintf("%.2f", or.GFlops), fmt.Sprintf("%.2f", nr.GFlops),
			fmt.Sprintf("%+.1f%%", 100*delta), note})
	}
	for _, or := range oldRep.Results {
		if _, ok := oldPoints[benchKey(or)]; ok {
			rows = append(rows, []string{kernelLabel(or), fmt.Sprint(or.M), fmt.Sprint(or.N), fmt.Sprint(or.K),
				fmt.Sprintf("%.2f", or.GFlops), "-", "", "removed"})
		}
	}
	if err := report.Table(w, rows); err != nil {
		return err
	}

	// Whole-algorithm points, when both reports carry them.
	oldAlgs := make(map[algPointKey]exec.AlgBenchResult, len(oldRep.Algorithms))
	for _, a := range oldRep.Algorithms {
		oldAlgs[algPointKey{a.Expr, a.Inst, a.Alg}] = a
	}
	if len(newRep.Algorithms) > 0 && len(oldAlgs) > 0 {
		fmt.Fprintln(w)
		rows := [][]string{{"expr", "inst", "alg", "old GF", "new GF", "delta", ""}}
		for _, na := range newRep.Algorithms {
			oa, ok := oldAlgs[algPointKey{na.Expr, na.Inst, na.Alg}]
			if !ok {
				continue
			}
			common++
			if oa.GFlops <= 0 {
				rows = append(rows, []string{na.Expr, na.Inst, fmt.Sprint(na.Alg),
					fmt.Sprintf("%.2f", oa.GFlops), fmt.Sprintf("%.2f", na.GFlops), "", "no baseline"})
				continue
			}
			delta := na.GFlops/oa.GFlops - 1
			note := ""
			if delta < -regressionTolerance {
				note = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf("%s %s alg %d: %.2f -> %.2f GFLOP/s (%.1f%%)",
					na.Expr, na.Inst, na.Alg, oa.GFlops, na.GFlops, 100*delta))
			}
			rows = append(rows, []string{na.Expr, na.Inst, fmt.Sprint(na.Alg),
				fmt.Sprintf("%.2f", oa.GFlops), fmt.Sprintf("%.2f", na.GFlops),
				fmt.Sprintf("%+.1f%%", 100*delta), note})
		}
		if err := report.Table(w, rows); err != nil {
			return err
		}
	}

	if common == 0 {
		return fmt.Errorf("no common points between %s and %s", oldPath, newPath)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(w, "\n%d point(s) regressed by more than %.0f%%:\n", len(regressions), 100*regressionTolerance)
		for _, r := range regressions {
			fmt.Fprintf(w, "  %s\n", r)
		}
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%%", len(regressions), 100*regressionTolerance)
	}
	fmt.Fprintf(w, "\n%d common point(s), no regression beyond %.0f%%\n", common, 100*regressionTolerance)
	return nil
}
