//go:build race

package engine

// raceEnabled reports whether the race detector is active; it inflates
// allocation volume, so allocation-budget tests are skipped under it.
const raceEnabled = true
