package core

import (
	"testing"
	"testing/quick"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/xrand"
)

// referenceBoundary computes the region boundary along one direction by
// a direct transcription of the paper's prose, independent of the
// traversal implementation: walk from origin in steps, a run of endRun
// consecutive non-anomalies ends the region at the run's first
// coordinate; hitting the box edge makes the last in-box sample the
// boundary.
func referenceBoundary(anomalous func(int) bool, origin, step, dir, lo, hi, endRun int) int {
	run := 0
	firstOfRun := 0
	last := origin
	for x := 1; ; x++ {
		coord := origin + dir*step*x
		if coord < lo || coord > hi {
			return last
		}
		last = coord
		if anomalous(coord) {
			run = 0
			continue
		}
		if run == 0 {
			firstOfRun = coord
		}
		run++
		if run >= endRun {
			return firstOfRun
		}
	}
}

func TestExp2BoundariesMatchReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		// Random anomaly pattern over d0: a union of 1–3 bands.
		type band struct{ lo, hi int }
		nBands := rng.IntRange(1, 3)
		bands := make([]band, nBands)
		for i := range bands {
			lo := rng.IntRange(20, 1100)
			bands[i] = band{lo: lo, hi: lo + rng.IntRange(0, 300)}
		}
		anomalous := func(d0 int) bool {
			for _, b := range bands {
				if d0 >= b.lo && d0 <= b.hi {
					return true
				}
			}
			return false
		}
		// Origin must be anomalous (Experiment 2 starts from anomalies).
		origin := bands[0].lo + (bands[0].hi-bands[0].lo)/2
		if origin > 1200 {
			origin = 1200
		}
		stub := &stubExecutor{anomalous: func(d0, d1, d2 int) bool { return anomalous(d0) }}
		r := NewRunner(expr.NewAATB(), &exec.Timer{Exec: stub, Reps: 1}, 0.05)
		box := expr.PaperBox(3)
		res := RunExp2(r, []expr.Instance{{origin, 500, 500}}, DefaultExp2Config(box), 1)
		ln := res.Lines[0] // the d0 line
		wantHi := referenceBoundary(anomalous, origin, 10, +1, 20, 1200, 3)
		wantLo := referenceBoundary(anomalous, origin, 10, -1, 20, 1200, 3)
		return ln.BoundaryHi == wantHi && ln.BoundaryLo == wantLo &&
			ln.Thickness == max(wantHi-wantLo-1, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExp2ParallelMatchesReferenceProperty(t *testing.T) {
	// Three workers must satisfy the same reference property.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		lo := rng.IntRange(100, 900)
		hi := lo + rng.IntRange(10, 250)
		anomalous := func(d0 int) bool { return d0 >= lo && d0 <= hi }
		origin := (lo + hi) / 2
		stub := &stubExecutor{anomalous: func(d0, d1, d2 int) bool { return anomalous(d0) }}
		r := NewRunner(expr.NewAATB(), &exec.Timer{Exec: stub, Reps: 1}, 0.05)
		res := RunExp2(r, []expr.Instance{{origin, 400, 400}},
			DefaultExp2Config(expr.PaperBox(3)), 3)
		ln := res.Lines[0]
		wantHi := referenceBoundary(anomalous, origin, 10, +1, 20, 1200, 3)
		wantLo := referenceBoundary(anomalous, origin, 10, -1, 20, 1200, 3)
		return ln.BoundaryHi == wantHi && ln.BoundaryLo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
