package core

import (
	"fmt"
	"sort"
	"sync"

	"lamb/internal/expr"
	"lamb/internal/par"
)

// Exp2Config parameterises Experiment 2 (lines through regions, §3.4.2).
type Exp2Config struct {
	// Box bounds the traversal (the search space).
	Box expr.Box
	// Step is the traversal stride; the paper steps by 10.
	Step int
	// EndRun is the number of consecutive non-anomalous instances that
	// marks the end of a region; the paper uses 3 (1–2 are holes).
	EndRun int
	// Progress, if non-nil, is called after each traversed line.
	Progress func(line, totalLines int)
}

// DefaultExp2Config returns the paper's settings for a given box.
func DefaultExp2Config(box expr.Box) Exp2Config {
	return Exp2Config{Box: box, Step: 10, EndRun: 3}
}

// LineSample is one evaluated instance along a traversal line.
type LineSample struct {
	// Coord is the value of the traversed dimension.
	Coord int
	Res   InstanceResult
}

// Line is the traversal of one axis-aligned line through an anomaly.
type Line struct {
	// Origin is the anomaly the line passes through.
	Origin expr.Instance
	// Dim is the traversed dimension index.
	Dim int
	// Samples holds every evaluated instance, sorted by Coord ascending
	// (the origin included).
	Samples []LineSample
	// BoundaryLo and BoundaryHi are the paper's region boundary points a
	// and b along the line (a < b).
	BoundaryLo, BoundaryHi int
	// Thickness is b − a − 1, the paper's region thickness in this
	// dimension.
	Thickness int
}

// Exp2Result is the outcome of Experiment 2.
type Exp2Result struct {
	// Lines holds one entry per (anomaly, dimension) pair.
	Lines []Line
	// TotalSamples is the number of evaluated line samples across all
	// lines (the population Experiment 3's confusion matrix counts).
	TotalSamples int
}

// ThicknessByDim groups region thicknesses per dimension: element d holds
// the thicknesses of all traversed anomalies in dimension d (the data
// behind the paper's Figures 7 and 10).
func (r *Exp2Result) ThicknessByDim(arity int) [][]int {
	out := make([][]int, arity)
	for _, ln := range r.Lines {
		out[ln.Dim] = append(out[ln.Dim], ln.Thickness)
	}
	return out
}

// RunExp2 traverses, for every anomaly, the axis-aligned lines in all
// dimensions through the anomaly, applying the paper's hole rule: one or
// two consecutive non-anomalous instances inside a region are holes; the
// region ends at EndRun consecutive non-anomalies (boundary = first of
// that run) or at the search-space boundary (boundary = last instance).
//
// The Runner's threshold is the classification threshold; the paper uses
// a 5% time score here. Each (anomaly, dimension) line is independent,
// so whole lines are spread over workers and the result does not depend
// on the worker count.
func RunExp2(r *Runner, anomalies []expr.Instance, cfg Exp2Config, workers int) Exp2Result {
	if err := cfg.Box.Validate(); err != nil {
		panic(err)
	}
	if cfg.Step <= 0 {
		panic(fmt.Sprintf("core: exp2 step %d must be positive", cfg.Step))
	}
	if cfg.EndRun <= 0 {
		panic(fmt.Sprintf("core: exp2 end run %d must be positive", cfg.EndRun))
	}
	w := resolveWorkers(workers)
	arity := r.Expr.Arity()
	// The origin instance is shared by all lines through it.
	originRes := make([]InstanceResult, len(anomalies))
	par.For(len(anomalies), w, func(i int) {
		originRes[i] = r.Evaluate(anomalies[i])
	})
	out := Exp2Result{Lines: make([]Line, len(anomalies)*arity)}
	done := 0
	var mu sync.Mutex
	par.For(len(out.Lines), w, func(li int) {
		ai, dim := li/arity, li%arity
		out.Lines[li] = traverseLine(r, anomalies[ai], originRes[ai], dim, cfg)
		if cfg.Progress != nil {
			mu.Lock()
			done++
			cfg.Progress(done, len(out.Lines))
			mu.Unlock()
		}
	})
	for i := range out.Lines {
		out.TotalSamples += len(out.Lines[i].Samples)
	}
	return out
}

// traverseLine walks dimension dim through origin in both directions.
func traverseLine(r *Runner, origin expr.Instance, originRes InstanceResult, dim int, cfg Exp2Config) Line {
	ln := Line{Origin: origin.Clone(), Dim: dim}
	ln.Samples = append(ln.Samples, LineSample{Coord: origin[dim], Res: originRes})

	walk := func(dir int) (boundary int) {
		nonAnomRun := 0
		// The first candidate boundary if we never see a non-anomaly is
		// the last in-box coordinate.
		last := origin[dim]
		firstOfRun := 0
		for x := 1; ; x++ {
			coord := origin[dim] + dir*cfg.Step*x
			if coord < cfg.Box.Lo[dim] || coord > cfg.Box.Hi[dim] {
				// Search-space boundary reached: the last instance is the
				// boundary of the region.
				return last
			}
			inst := origin.Clone()
			inst[dim] = coord
			res := r.Evaluate(inst)
			ln.Samples = append(ln.Samples, LineSample{Coord: coord, Res: res})
			last = coord
			if res.Class.Anomaly {
				nonAnomRun = 0
				continue
			}
			if nonAnomRun == 0 {
				firstOfRun = coord
			}
			nonAnomRun++
			if nonAnomRun >= cfg.EndRun {
				// Region ended: boundary is the first of the run.
				return firstOfRun
			}
		}
	}

	ln.BoundaryHi = walk(+1)
	ln.BoundaryLo = walk(-1)
	sort.Slice(ln.Samples, func(i, j int) bool { return ln.Samples[i].Coord < ln.Samples[j].Coord })
	ln.Thickness = ln.BoundaryHi - ln.BoundaryLo - 1
	if ln.Thickness < 0 {
		ln.Thickness = 0
	}
	return ln
}
