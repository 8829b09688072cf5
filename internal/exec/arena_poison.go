//go:build arenapoison

package exec

import "math"

// poisonArena NaN-fills every plan arena: each slab the pool hands out,
// fresh or reused, and each one a cached plan allocates for itself. A
// plan that reads an operand before writing it then computes NaNs the
// equivalence tests reject. Built only with -tags arenapoison.
func poisonArena(slab []float64) []float64 {
	nan := math.NaN()
	for i := range slab {
		slab[i] = nan
	}
	return slab
}
