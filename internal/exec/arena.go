package exec

// This file implements the plan-arena pool. Compiled plans take their
// slab (operand arena plus SPD fill scratch) from a short free list,
// and plans that are done give it back through BatchPlan.Release. A
// slab handed out is never zeroed: every operand of a plan is filled,
// copied in or written by a kernel before any kernel reads it, so stale
// contents of an earlier plan never reach a result. Builds tagged
// arenapoison NaN-fill every plan arena, pooled or not (arena_poison.go),
// which turns any read-before-write into NaNs the equivalence tests
// reject.
//
// The free list holds its slabs through weak pointers: a slab sitting
// in the pool is reused until the next garbage collection, which frees
// it. Retained slabs therefore never count toward the live heap the
// collector sizes its next cycle from, so pooling cannot raise the
// process's resident memory; between collections, which the pool itself
// makes rare, a plan's arena costs neither an allocation nor a zeroing
// pass.

import (
	"slices"
	"sync"
	"weak"
)

// MaxRetainedArenaBytes bounds the bytes the pool keeps on its free
// list: one fused plan's worth of chunk slabs (the 4 MiB slab budget
// times MaxFusedChunks).
const MaxRetainedArenaBytes = batchSlabFloats * MaxFusedChunks * 8

// arenaPoolSlabs bounds how many slabs the pool keeps. The engine
// compiles and executes its fused chunk plans one at a time, so a slab
// for that plan and one for a per-query plan beside it cover its use.
const arenaPoolSlabs = 2

// pooledSlab is what the free list points to weakly; the slab's backing
// array lives exactly as long as it.
type pooledSlab struct{ data []float64 }

// freeSlab is one free-list entry: a weak pointer to the slab and its
// capacity in float64s.
type freeSlab struct {
	slab weak.Pointer[pooledSlab]
	cap  int
}

// arenaPool is the free list, kept sorted by capacity, smallest first.
type arenaPool struct {
	mu       sync.Mutex
	free     []freeSlab
	retained int // float64s on the free list, collected slabs included
}

// arenas is the process-wide plan-arena pool.
var arenas arenaPool

// get returns a slab of length n: the smallest retained slab that holds
// n float64s, or a new one. Its contents are unspecified.
func (ap *arenaPool) get(n int) []float64 {
	if n <= 0 {
		return nil
	}
	ap.mu.Lock()
	for i := 0; i < len(ap.free); {
		f := ap.free[i]
		if f.cap < n {
			i++
			continue
		}
		ap.free = slices.Delete(ap.free, i, i+1)
		ap.retained -= f.cap
		if s := f.slab.Value(); s != nil {
			ap.mu.Unlock()
			return poisonArena(s.data[:n])
		}
	}
	ap.mu.Unlock()
	return poisonArena(make([]float64, n))
}

// put returns a slab to the free list. Past arenaPoolSlabs entries or
// MaxRetainedArenaBytes, the smallest entries are dropped.
func (ap *arenaPool) put(slab []float64) {
	c := cap(slab)
	if c == 0 || c*8 > MaxRetainedArenaBytes {
		return
	}
	f := freeSlab{slab: weak.Make(&pooledSlab{data: slab[:c]}), cap: c}
	ap.mu.Lock()
	defer ap.mu.Unlock()
	i := 0
	for i < len(ap.free) && ap.free[i].cap < c {
		i++
	}
	ap.free = slices.Insert(ap.free, i, f)
	ap.retained += c
	for len(ap.free) > arenaPoolSlabs || ap.retained*8 > MaxRetainedArenaBytes {
		ap.retained -= ap.free[0].cap
		ap.free = slices.Delete(ap.free, 0, 1)
	}
}

// RetainedArenaBytes returns the bytes of the slabs the plan-arena pool
// holds that the garbage collector has not freed yet. It never exceeds
// MaxRetainedArenaBytes.
func RetainedArenaBytes() int {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	n := 0
	for _, f := range arenas.free {
		if f.slab.Value() != nil {
			n += f.cap
		}
	}
	return n * 8
}
