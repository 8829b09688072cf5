//go:build !arenapoison

package exec

// poisonArena hands plan arenas out as they are; see arena_poison.go for the
// write-before-read check.
func poisonArena(slab []float64) []float64 { return slab }
