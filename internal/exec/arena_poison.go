//go:build arenapoison

package exec

import "math"

// poisonArena NaN-fills every plan arena: each buffer a Slab lends,
// fresh or reused, at every hand-out, and each one a plan allocates for
// itself. A plan that reads an operand before writing it then computes
// NaNs the equivalence tests reject. Built only with -tags arenapoison.
func poisonArena(slab []float64) []float64 {
	nan := math.NaN()
	for i := range slab {
		slab[i] = nan
	}
	return slab
}
