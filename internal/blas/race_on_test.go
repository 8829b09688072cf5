//go:build race

package blas

// raceEnabled reports whether the race detector is active; under -race
// sync.Pool deliberately drops items, so allocation-count tests that
// reach one (the parallel batch tier's job pool) are skipped.
const raceEnabled = true
