// Command perfbench is the serving benchmark of lamb. One run boots the
// prebuilt `lamb serve` (and `lamb route`) processes of one workload and
// the benchmark's own reference server (this program with -refserve),
// drives them in turn from this process over two keep-alive connections
// in a closed loop, checks every answer, and prints the end-to-end
// metrics read against the reference.
// With -trace 1 it instead replays the workload's requests in-process,
// times each layer's public functions, and prints per-layer metrics.
//
// It is built and run by run.sh; see README.md for the workloads and
// metrics:
//
//	bash perfbench/run.sh --workload select-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"qps": {"value": ..., "unit": "1/s"}, ...}}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"lamb/internal/profile"
)

// units of every metric a run can print.
var units = map[string]string{
	"qps":                     "1/s",
	"latency_p50_ms":          "ms",
	"latency_p90_ms":          "ms",
	"server_cpu_us_per_query": "us",
	"server_rss_mb":           "MB",
	"setup_s":                 "s",

	"serve.decode_us":                        "us",
	"serve.encode_us":                        "us",
	"serve.response_bytes":                   "bytes",
	"engine.do_us":                           "us",
	"engine.queries":                         "count",
	"expr.bind_us":                           "us",
	"engine.bind_hit_ratio":                  "ratio",
	"engine.bind_lookups":                    "count",
	"selection.choose_us":                    "us",
	"selection.rank_us":                      "us",
	"selection.rank_share":                   "ratio",
	"outcomes.near_us":                       "us",
	"outcomes.near_obs":                      "count",
	"selection.posterior_us":                 "us",
	"outcomes.add_us":                        "us",
	"outcomes.restore_ms":                    "ms",
	"exec.compile_us":                        "us",
	"exec.execute_us":                        "us",
	"blas.gflops":                            "GFLOP/s",
	"engine.fused_share":                     "ratio",
	"engine.fuse_rejected.too_big_arena":     "count",
	"engine.fuse_rejected.unregistered":      "count",
	"engine.fuse_rejected.hetero_prepadding": "count",
	"router.overhead_us":                     "us",
	"router.requests":                        "count",
	"router.forwards_per_query":              "ratio",
	"router.retries":                         "count",
	"router.hedged":                          "count",
	"router.degraded":                        "count",
	"engine.anomalous_share":                 "ratio",
	"engine.adaptive_informed_share":         "ratio",
	"engine.adaptive_queries":                "count",
	"host.calib_ms":                          "ms",
	"host.mem_calib_ms":                      "ms",
	"host.steal_pct":                         "%",
	"trace.overhead_pct":                     "%",
	"trace.do_coverage_pct":                  "%",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: select-mix, adaptive-store, batch-compute, routed-select")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the timed window (untraced runs)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from the servers; 1: per-layer metrics from the traced in-process replay")
	lambBin := flag.String("lamb", "", "prebuilt lamb binary")
	root := flag.String("root", ".", "checkout root (the profile is read from its testdata)")
	work := flag.String("work", ".bench_build/run", "directory for run files (snapshots, spans)")
	refserve := flag.Bool("refserve", false, "run the reference server the timed window is read against")
	flag.Parse()
	if *refserve {
		if err := refServe(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench reference:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *trace, *lambBin, *root, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, lambBin, root, work string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	if _, err := os.Stat(lambBin); err != nil {
		return fmt.Errorf("prebuilt lamb binary: %w", err)
	}
	calibBefore, memBefore := hostCalibMs(), hostMemCalibMs()
	runStart := time.Now()
	stealBefore, err := hostStealSeconds()
	if err != nil {
		return err
	}

	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, trace)))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	in, err := w.generate(seed)
	if err != nil {
		return err
	}
	v := &env{w: w, in: in, lambBin: lambBin}
	if w.profile {
		v.profilePath = filepath.Join(root, "testdata", "profile-ci.json")
		if v.profSet, v.profMeta, err = profile.ReadFile(v.profilePath); err != nil {
			return err
		}
	}
	if in.snapshot != nil {
		v.snapPath = filepath.Join(dir, "outcomes.json")
		if err := in.snapshot.WriteFile(v.snapPath); err != nil {
			return err
		}
	}

	t := &tally{}
	var values map[string]float64
	var detail map[string]any
	if trace == 0 {
		sr, err := runServing(v, dir, seconds, t)
		if err != nil {
			return err
		}
		values, detail = sr.metrics, sr.detail
	} else {
		spans := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.txt", w.name, seed))
		values, detail, err = runTrace(v, dir, spans, t)
		if err != nil {
			return err
		}
	}
	stealAfter, err := hostStealSeconds()
	if err != nil {
		return err
	}
	steal := stealPct(stealBefore, stealAfter, time.Since(runStart).Seconds())
	calibAfter, memAfter := hostCalibMs(), hostMemCalibMs()
	if trace == 1 {
		values["host.calib_ms"] = (calibBefore + calibAfter) / 2
		values["host.mem_calib_ms"] = (memBefore + memAfter) / 2
		values["host.steal_pct"] = steal
	}
	detail["workload"], detail["seed"], detail["trace"] = w.name, seed, trace
	detail["host_calib_before_ms"], detail["host_calib_after_ms"] = calibBefore, calibAfter
	detail["host_mem_calib_before_ms"], detail["host_mem_calib_after_ms"] = memBefore, memAfter
	detail["host_steal_pct"] = steal
	detail["errors"] = t.errs

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for k, val := range values {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return fmt.Errorf("metric %s is %v", k, val)
		}
		unit, ok := units[k]
		if !ok {
			return fmt.Errorf("metric %s has no unit", k)
		}
		res.Metrics[k] = metric{Value: val, Unit: unit}
	}
	if res.Attempted == 0 {
		return errors.New("no operation attempted")
	}
	d, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Printf("# detail %s\n", d)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
