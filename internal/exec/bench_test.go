package exec

import (
	"encoding/json"
	"testing"

	"lamb/internal/kernels"
	"lamb/internal/xrand"
)

func TestBenchCallGemm(t *testing.T) {
	res := BenchCall(kernels.NewGemm(64, 64, 64, "A", "B", "C", false, false), 3, xrand.New(1))
	if res.Kernel != "gemm" || res.M != 64 || res.Reps != 3 {
		t.Fatalf("unexpected result metadata: %+v", res)
	}
	if res.Seconds <= 0 || res.GFlops <= 0 {
		t.Fatalf("non-positive timing: %+v", res)
	}
	if res.BestSeconds > res.Seconds {
		t.Fatalf("best %v slower than median %v", res.BestSeconds, res.Seconds)
	}
	if res.BestGFlops < res.GFlops {
		t.Fatalf("best GFLOP/s %v below median %v", res.BestGFlops, res.GFlops)
	}
}

func TestBenchCallInPlaceKernels(t *testing.T) {
	// POTRF and TRSM mutate their operands; BenchCall must re-materialise
	// them each repetition, so repeated factorisations succeed (a repeated
	// in-place Cholesky of its own output would fail or measure garbage).
	for _, call := range []kernels.Call{
		kernels.NewPotrf(48, "S"),
		kernels.NewTrsm(48, 16, "L", "B", false),
	} {
		res := BenchCall(call, 4, xrand.New(2))
		if res.Seconds <= 0 || res.GFlops <= 0 {
			t.Fatalf("%s: non-positive timing: %+v", call, res)
		}
	}
}

func TestRunBenchGridShort(t *testing.T) {
	rep := RunBenchGrid(true, 1, false)
	if rep.Backend == "" || rep.GoMaxProcs < 1 || rep.Workers < 1 {
		t.Fatalf("bad report metadata: %+v", rep)
	}
	if rep.PeakGFlops <= 0 {
		t.Fatalf("peak not measured: %v", rep.PeakGFlops)
	}
	kinds := map[string]bool{}
	for _, r := range rep.Results {
		kinds[r.Kernel] = true
		if r.Seconds <= 0 {
			t.Fatalf("%s: non-positive time", r.Kernel)
		}
	}
	for _, want := range []string{"gemm", "syrk", "symm", "trsm", "potrf"} {
		if !kinds[want] {
			t.Fatalf("grid missing kernel %q (got %v)", want, kinds)
		}
	}
	// The report must round-trip through JSON for BENCH_<n>.json.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Results) != len(rep.Results) {
		t.Fatalf("round-trip lost results: %d vs %d", len(back.Results), len(rep.Results))
	}
}

func TestFlushCacheTracksFlushBytes(t *testing.T) {
	e := NewMeasured()
	e.flushCache()
	first := len(e.flushBuf)
	if first != e.FlushBytes/8 {
		t.Fatalf("flush buffer %d floats, want %d", first, e.FlushBytes/8)
	}
	// Shrinking FlushBytes after the first flush must take effect.
	e.FlushBytes = 1 << 20
	e.flushCache()
	if got := len(e.flushBuf); got != (1<<20)/8 {
		t.Fatalf("flush buffer not resized: %d floats, want %d", got, (1<<20)/8)
	}
	// And tiny values are clamped to the 1024-float floor.
	e.FlushBytes = 16
	e.flushCache()
	if got := len(e.flushBuf); got != 1024 {
		t.Fatalf("flush buffer floor: %d floats, want 1024", got)
	}
}
