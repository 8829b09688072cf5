package exec

// This file holds what only perfbench's exec replay still calls, from
// its branch that mirrors the deleted fused compute path. No lamb code
// calls any of it: delete the replay's fused branch, then this file.

import (
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// FuseChunk returns 0: no algorithm is in a fused regime, because every
// computed query runs alone. It exists only for perfbench's replay.
func (e *Measured) FuseChunk(*expr.Algorithm) int { return 0 }

// FuseWidth returns 0, like FuseChunk. It exists only for perfbench's
// replay.
func (e *Measured) FuseWidth(*expr.Algorithm) int { return 0 }

// Plans is a list of independently compiled plans, one per instance. It
// exists only for perfbench's replay.
type Plans []*Plan

// CompileBatchPlanMixed compiles one plan per algorithm, each in an
// arena of its own. It exists only for perfbench's replay.
func CompileBatchPlanMixed(algs []*expr.Algorithm) (Plans, error) {
	ps := make(Plans, len(algs))
	for i, alg := range algs {
		p, err := CompilePlan(alg)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// FillInputs fills every plan's inputs from rng, in instance order.
func (ps Plans) FillInputs(rng *xrand.Rand) {
	for _, p := range ps {
		p.FillInputs(rng)
	}
}

// Execute runs every plan once, in instance order.
func (ps Plans) Execute() {
	for _, p := range ps {
		p.Execute()
	}
}

// Output returns instance k's result operand.
func (ps Plans) Output(k int) *mat.Dense { return ps[k].Output() }
