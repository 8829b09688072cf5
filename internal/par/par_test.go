package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForBoundsConcurrency checks that every index runs exactly
// once — including the empty range and the inline w <= 1 path — and
// that no more than max(w, 1) calls are ever in flight at once.
func TestParallelForBoundsConcurrency(t *testing.T) {
	for _, tc := range []struct{ n, w int }{
		{0, 4}, {3, 0}, {7, 1}, {5, -2}, {10, 3}, {2, 8}, {64, 4},
	} {
		hits := make([]atomic.Int32, tc.n)
		var live, peak atomic.Int32
		For(tc.n, tc.w, func(i int) {
			cur := live.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			// Hold the slot briefly so concurrent workers overlap.
			time.Sleep(200 * time.Microsecond)
			hits[i].Add(1)
			live.Add(-1)
		})
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("n=%d w=%d: index %d ran %d times", tc.n, tc.w, i, h)
			}
		}
		if limit := int32(max(tc.w, 1)); peak.Load() > limit {
			t.Errorf("n=%d w=%d: peak concurrency %d exceeds %d", tc.n, tc.w, peak.Load(), limit)
		}
	}
}

// TestParallelRatioIsPositive checks that the core check returns a
// finite positive ratio; its value depends on the host's cores.
func TestParallelRatioIsPositive(t *testing.T) {
	r := ParallelRatio()
	t.Logf("parallel_ratio %.2f at GOMAXPROCS %d", r, runtime.GOMAXPROCS(0))
	if !(r > 0) || math.IsInf(r, 0) {
		t.Errorf("ParallelRatio() = %v, want a finite positive ratio", r)
	}
}
