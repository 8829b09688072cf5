//go:build race

package main

// raceEnabled reports whether the race detector is active; it slows
// every call, so time budgets are reported rather than asserted.
const raceEnabled = true
