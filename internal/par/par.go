// Package par is the repository's one generic bounded fan-out: run n
// independent index tasks on at most w goroutines. Worker-count policy
// stays with each caller (the experiment drivers, the BLAS block
// drivers, the engine's query fan-out); this package only schedules.
package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// For runs f(0), …, f(n-1) on at most w goroutines and returns when all
// have finished. Indices are handed out dynamically through an atomic
// counter, so uneven task costs still balance. With min(w, n) <= 1 it
// runs inline on the calling goroutine, in index order.
func For(n, w int, f func(i int)) {
	ng := min(w, n)
	if ng <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(ng)
	for g := 0; g < ng; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ParallelRatio is a core check: it times a fixed ALU spin on one
// goroutine and the same work split over two, and returns the first
// time over the second, each the best of five runs taken in turn. Near
// 2, two cores ran the halves at once; near 1, the process had one
// (GOMAXPROCS 1, or a host whose second core was busy elsewhere). A
// multi-core speedup means something only where this check passes on
// both sides of the comparison. It collects garbage first, so no
// background marking shares the spin, and takes a few tens of
// milliseconds.
func ParallelRatio() float64 {
	runtime.GC()
	one, two := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		one = min(one, spin(1))
		two = min(two, spin(2))
	}
	return one.Seconds() / two.Seconds()
}

// spinIters is the ALU work ParallelRatio times: one dependent
// multiply-add chain, a few milliseconds on one core.
const spinIters = 1 << 21

// spinSink keeps the spin's result live.
var spinSink atomic.Uint64

// spin times spinIters iterations split over w goroutines.
func spin(w int) time.Duration {
	start := time.Now()
	For(w, w, func(int) {
		x := uint64(1)
		for range spinIters / w {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink.Add(x)
	})
	return time.Since(start)
}
