//go:build !arenapoison

package exec

// poisonArena hands slabs out as they are; see arena_poison.go for the
// write-before-read check.
func poisonArena(slab []float64) []float64 { return slab }
