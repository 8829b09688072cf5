package engine

import (
	"fmt"

	"lamb/internal/expr"
)

// The feedback path: callers report how a served selection actually
// performed, the engine records the outcome in a concurrency-safe store
// (lamb/internal/outcomes — bounded, time-decayed, snapshot/restorable),
// and the adaptive strategy folds nearby outcomes back into later
// choices (the online decision process of arXiv:2209.03258). `lamb
// serve` exposes it as POST /api/feedback and persists the store across
// restarts with -outcomes.

// Feedback is one measured outcome for a previously served selection:
// running algorithm Algorithm (the paper's 1-based index, as in
// Record.Selected.Index) of expression Expr at Instance took Seconds.
type Feedback struct {
	Expr      string        `json:"expr"`
	Instance  expr.Instance `json:"instance"`
	Algorithm int           `json:"algorithm"`
	Seconds   float64       `json:"seconds"`
}

// Feedback validates and records one outcome. The expression and
// instance are resolved through the same symbolic and binding layers
// queries use — so the instance is validated against the expression,
// the bound set stays warm in the bind LRU for the follow-up query, and
// the algorithm index is checked against the actual set size. An
// engine without profiles has no adaptive strategy to ever consume
// outcomes, so it rejects them rather than silently hoarding data that
// cannot influence any answer.
func (e *Engine) Feedback(fb Feedback) error {
	if e.prof.Load() == nil {
		return fmt.Errorf("engine: feedback has no consumer: the adaptive strategy needs a profile store (serve with -profile)")
	}
	x, err := e.lookup(fb.Expr, false)
	if err != nil {
		return err
	}
	b, err := e.bound(x, fb.Instance)
	if err != nil {
		return err
	}
	if fb.Algorithm < 1 || fb.Algorithm > len(b.algs) {
		return fmt.Errorf("engine: feedback algorithm %d out of range [1, %d] for %s%v",
			fb.Algorithm, len(b.algs), x.Name(), fb.Instance)
	}
	if err := e.outcomes.Add(x.Name(), fb.Instance, fb.Algorithm, fb.Seconds); err != nil {
		return fmt.Errorf("engine: feedback: %w", err)
	}
	e.feedback.Add(1)
	return nil
}
