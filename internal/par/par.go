// Package par is the repository's one generic bounded fan-out: run n
// independent index tasks on at most w goroutines. Worker-count policy
// stays with each caller (the experiment drivers, the BLAS block
// drivers, the engine's query fan-out); this package only schedules.
package par

import (
	"sync"
	"sync/atomic"
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
