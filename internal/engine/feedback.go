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

// Feedback validates and records one outcome. The expression is
// resolved through the registry queries use (expr.Lookup), and
// checkEvidence validates the instance and the algorithm index without
// binding a set — feedback never touches the bind LRU, whose entries stay the ones
// query traffic put there. An engine without profiles has no adaptive
// strategy to ever consume outcomes, so it rejects them rather than
// silently hoarding data that cannot influence any answer.
func (e *Engine) Feedback(fb Feedback) error {
	if e.prof.Load() == nil {
		return fmt.Errorf("engine: feedback has no consumer: the adaptive strategy needs a profile store (serve with -profile)")
	}
	x, err := expr.Lookup(fb.Expr)
	if err != nil {
		return err
	}
	if err := checkEvidence(x, fb.Instance, fb.Algorithm); err != nil {
		return err
	}
	if err := e.outcomes.Add(x.Name(), fb.Instance, fb.Algorithm, fb.Seconds); err != nil {
		return fmt.Errorf("engine: feedback: %w", err)
	}
	e.feedback.Add(1)
	return nil
}

// checkEvidence is the one check for evidence that arrives from outside
// a query — a feedback post, a restored or a merged snapshot record: the
// instance must validate against x, and alg must be a 1-based index into
// x's algorithm set. The set's size does not depend on the instance, so
// it is x's NumAlgorithms. Nothing here binds a set or touches the bind
// LRU.
func checkEvidence(x expr.Expression, inst expr.Instance, alg int) error {
	if err := x.Validate(inst); err != nil {
		return err
	}
	if n := x.NumAlgorithms(); alg < 1 || alg > n {
		return fmt.Errorf("engine: feedback algorithm %d out of range [1, %d] for %s%v", alg, n, x.Name(), inst)
	}
	return nil
}
