package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lamb/internal/exec"
)

func writeBench(t *testing.T, dir, name string, rep exec.BenchReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchPoint(kernel string, m, n, k int, gflops float64) exec.BenchResult {
	return exec.BenchResult{Kernel: kernel, M: m, N: n, K: k, GFlops: gflops, BestGFlops: gflops}
}

func TestCompareBenchNoRegression(t *testing.T) {
	dir := t.TempDir()
	oldRep := exec.BenchReport{Results: []exec.BenchResult{
		benchPoint("gemm", 256, 256, 256, 20),
		benchPoint("potrf", 256, 256, 0, 7),
	}}
	newRep := exec.BenchReport{Results: []exec.BenchResult{
		benchPoint("gemm", 256, 256, 256, 25), // improved
		benchPoint("potrf", 256, 256, 0, 6.5), // -7%, inside tolerance
		benchPoint("trsm", 256, 256, 0, 9),    // added point
	}}
	oldPath := writeBench(t, dir, "old.json", oldRep)
	newPath := writeBench(t, dir, "new.json", newRep)
	var out strings.Builder
	if err := compareBench(&out, oldPath, newPath); err != nil {
		t.Fatalf("unexpected failure: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "added") {
		t.Errorf("added point not reported:\n%s", out.String())
	}
}

func TestCompareBenchDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	oldRep := exec.BenchReport{Results: []exec.BenchResult{
		benchPoint("gemm", 256, 256, 256, 20),
	}}
	newRep := exec.BenchReport{Results: []exec.BenchResult{
		benchPoint("gemm", 256, 256, 256, 15), // -25%: beyond tolerance
	}}
	oldPath := writeBench(t, dir, "old.json", oldRep)
	newPath := writeBench(t, dir, "new.json", newRep)
	var out strings.Builder
	err := compareBench(&out, oldPath, newPath)
	if err == nil {
		t.Fatalf("regression not detected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regression not marked in table:\n%s", out.String())
	}
}

func TestCompareBenchDistinguishesTransposedPoints(t *testing.T) {
	// gemm 256³ and gemm(Aᵀ) 256³ are different grid points and must not
	// be matched against each other.
	dir := t.TempDir()
	plain := benchPoint("gemm", 256, 256, 256, 20)
	transA := benchPoint("gemm", 256, 256, 256, 5)
	transA.TransA = true
	oldRep := exec.BenchReport{Results: []exec.BenchResult{plain, transA}}
	newRep := exec.BenchReport{Results: []exec.BenchResult{plain, transA}}
	oldPath := writeBench(t, dir, "old.json", oldRep)
	newPath := writeBench(t, dir, "new.json", newRep)
	var out strings.Builder
	if err := compareBench(&out, oldPath, newPath); err != nil {
		t.Fatalf("identical reports must compare clean: %v\n%s", err, out.String())
	}
}

func TestCompareBenchAlgorithmSection(t *testing.T) {
	dir := t.TempDir()
	algOld := exec.AlgBenchResult{Expr: "chain", Inst: "(13,18,23,28,33)", Alg: 1, GFlops: 10}
	algNew := algOld
	algNew.GFlops = 4 // -60%
	oldRep := exec.BenchReport{
		Results:    []exec.BenchResult{benchPoint("gemm", 64, 64, 64, 20)},
		Algorithms: []exec.AlgBenchResult{algOld},
	}
	newRep := exec.BenchReport{
		Results:    []exec.BenchResult{benchPoint("gemm", 64, 64, 64, 20)},
		Algorithms: []exec.AlgBenchResult{algNew},
	}
	oldPath := writeBench(t, dir, "old.json", oldRep)
	newPath := writeBench(t, dir, "new.json", newRep)
	var out strings.Builder
	if err := compareBench(&out, oldPath, newPath); err == nil {
		t.Fatalf("whole-algorithm regression not detected:\n%s", out.String())
	}
}

func TestCompareBenchNoCommonPoints(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", exec.BenchReport{Results: []exec.BenchResult{
		benchPoint("gemm", 64, 64, 64, 20),
	}})
	newPath := writeBench(t, dir, "new.json", exec.BenchReport{Results: []exec.BenchResult{
		benchPoint("gemm", 128, 128, 128, 20),
	}})
	var out strings.Builder
	if err := compareBench(&out, oldPath, newPath); err == nil {
		t.Fatal("disjoint reports must fail the comparison")
	}
}

// TestCompareBenchIgnoresBatches pins that reports written while
// `lamb bench` still had a fused-batch section (BENCH_5 to BENCH_8)
// compare cleanly: the "batches" section is ignored, so neither its
// points nor a collapse of its numbers count or fail the comparison.
func TestCompareBenchIgnoresBatches(t *testing.T) {
	committed := filepath.Join("..", "..", "BENCH_8.json")
	var out strings.Builder
	if err := compareBench(&out, committed, committed); err != nil {
		t.Fatalf("BENCH_8.json against itself: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "\n30 common point(s)") {
		t.Errorf("want the 30 kernel points in common, batch points ignored:\n%s", out.String())
	}
	dir := t.TempDir()
	report := func(name string, fusedQPS float64) string {
		body := fmt.Sprintf(`{"results":[{"kernel":"gemm","m":64,"n":64,"k":64,"gflops":20}],`+
			`"batches":[{"expr":"aatb","inst":"(8,8,8)","alg":1,"count":64,"fused_qps":%g,"speedup":2}]}`, fusedQPS)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out.Reset()
	if err := compareBench(&out, report("old.json", 1e5), report("new.json", 1)); err != nil {
		t.Fatalf("a batch-only collapse failed the comparison: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "aatb") {
		t.Errorf("batch points reported:\n%s", out.String())
	}
}
