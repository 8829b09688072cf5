package core

import (
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/kernels"
)

func stubRunner(anomalous func(d0, d1, d2 int) bool) (*Runner, *stubExecutor) {
	stub := &stubExecutor{anomalous: anomalous}
	timer := &exec.Timer{Exec: stub, Reps: 1}
	return NewRunner(expr.NewAATB(), timer, 0.05), stub
}

func TestExp1FindsPlantedAnomalies(t *testing.T) {
	// Anomalies planted in a band covering half of d0's range.
	r, _ := stubRunner(func(d0, d1, d2 int) bool { return d0 >= 100 })
	cfg := Exp1Config{
		Box:             expr.UniformBox(3, 20, 180),
		TargetAnomalies: 10,
		MaxSamples:      10_000,
		Seed:            1,
	}
	res := RunExp1(r, cfg, 1)
	if len(res.Anomalies) != 10 {
		t.Fatalf("found %d anomalies, want 10", len(res.Anomalies))
	}
	for _, a := range res.Anomalies {
		if a.Inst[0] < 100 {
			t.Fatalf("non-planted anomaly at %v", a.Inst)
		}
		if !a.Class.Anomaly {
			t.Fatal("recorded anomaly not classified anomalous")
		}
		if a.Class.TimeScore != 0.5 {
			t.Fatalf("stub time score %v, want 0.5", a.Class.TimeScore)
		}
	}
	// d0 >= 100 covers 81/161 of the box: abundance should be near 0.5.
	if res.Abundance < 0.3 || res.Abundance > 0.7 {
		t.Fatalf("abundance %v, want ≈0.5", res.Abundance)
	}
}

func TestExp1NoAnomalies(t *testing.T) {
	r, _ := stubRunner(func(d0, d1, d2 int) bool { return false })
	cfg := Exp1Config{
		Box:             expr.UniformBox(3, 20, 100),
		TargetAnomalies: 5,
		MaxSamples:      200,
		Seed:            2,
	}
	res := RunExp1(r, cfg, 1)
	if len(res.Anomalies) != 0 {
		t.Fatalf("found %d anomalies in anomaly-free space", len(res.Anomalies))
	}
	if res.Samples != 200 {
		t.Fatalf("samples %d, want MaxSamples=200", res.Samples)
	}
	if res.Abundance != 0 {
		t.Fatalf("abundance %v", res.Abundance)
	}
}

func TestExp1Deterministic(t *testing.T) {
	mk := func() Exp1Result {
		r, _ := stubRunner(func(d0, d1, d2 int) bool { return d0 > 150 })
		return RunExp1(r, Exp1Config{
			Box: expr.UniformBox(3, 20, 200), TargetAnomalies: 5, MaxSamples: 5000, Seed: 7,
		}, 1)
	}
	a, b := mk(), mk()
	if a.Samples != b.Samples || len(a.Anomalies) != len(b.Anomalies) {
		t.Fatal("exp1 not deterministic")
	}
	for i := range a.Anomalies {
		if a.Anomalies[i].Inst.String() != b.Anomalies[i].Inst.String() {
			t.Fatal("exp1 anomaly order not deterministic")
		}
	}
}

func TestExp1DedupesAnomalies(t *testing.T) {
	// A 1-wide box in every dimension: every sample is the same instance.
	r, _ := stubRunner(func(d0, d1, d2 int) bool { return true })
	res := RunExp1(r, Exp1Config{
		Box:             expr.UniformBox(3, 50, 50),
		TargetAnomalies: 3,
		MaxSamples:      100,
		Seed:            3,
	}, 1)
	if len(res.Anomalies) != 1 {
		t.Fatalf("distinct anomalies %d, want 1 (dedupe)", len(res.Anomalies))
	}
	if res.Samples != 100 {
		t.Fatalf("samples %d: search must continue to MaxSamples when target unreachable", res.Samples)
	}
	if res.Abundance != 1 {
		t.Fatalf("abundance %v: duplicate anomalous draws still count", res.Abundance)
	}
}

func TestExp1ProgressCallback(t *testing.T) {
	r, _ := stubRunner(func(d0, d1, d2 int) bool { return false })
	var calls int
	RunExp1(r, Exp1Config{
		Box: expr.UniformBox(3, 20, 40), TargetAnomalies: 1, MaxSamples: 50, Seed: 4,
		Progress: func(samples, anomalies int) { calls++ }, ProgressEvery: 10,
	}, 1)
	if calls != 5 {
		t.Fatalf("progress called %d times, want 5", calls)
	}
}

func TestExp2HoleRuleAndBoundaries(t *testing.T) {
	// Anomalous region in d0: [100, 200] plus an island at 220 reachable
	// through a 1-sample hole at 210. Walking +10 from 150:
	//   160..200 anomalous; 210 hole; 220 anomalous; 230,240,250 end the
	//   region → boundary hi = 230.
	// Walking −10: 140..100 anomalous; 90,80,70 → boundary lo = 90.
	r, _ := stubRunner(func(d0, d1, d2 int) bool {
		return (d0 >= 100 && d0 <= 200) || d0 == 220
	})
	origin := expr.Instance{150, 500, 500}
	cfg := DefaultExp2Config(expr.PaperBox(3))
	res := RunExp2(r, []expr.Instance{origin}, cfg, 1)
	if len(res.Lines) != 3 {
		t.Fatalf("lines %d, want 3 (one per dimension)", len(res.Lines))
	}
	d0line := res.Lines[0]
	if d0line.Dim != 0 {
		t.Fatalf("first line dim %d", d0line.Dim)
	}
	if d0line.BoundaryHi != 230 {
		t.Fatalf("boundary hi = %d, want 230 (first of the 3-run, after the hole)", d0line.BoundaryHi)
	}
	if d0line.BoundaryLo != 90 {
		t.Fatalf("boundary lo = %d, want 90", d0line.BoundaryLo)
	}
	if want := 230 - 90 - 1; d0line.Thickness != want {
		t.Fatalf("thickness = %d, want %d", d0line.Thickness, want)
	}
	// Samples must be sorted by coordinate and include the origin.
	prev := -1
	sawOrigin := false
	for _, s := range d0line.Samples {
		if s.Coord <= prev {
			t.Fatal("samples not strictly sorted")
		}
		prev = s.Coord
		if s.Coord == 150 {
			sawOrigin = true
		}
	}
	if !sawOrigin {
		t.Fatal("origin missing from line samples")
	}
}

func TestExp2TwoHolesAreStillHoles(t *testing.T) {
	// Two consecutive non-anomalies (210, 220) then anomalous again at
	// 230: the region must continue through the double hole.
	r, _ := stubRunner(func(d0, d1, d2 int) bool {
		return (d0 >= 100 && d0 <= 200) || (d0 >= 230 && d0 <= 250)
	})
	origin := expr.Instance{150, 500, 500}
	res := RunExp2(r, []expr.Instance{origin}, DefaultExp2Config(expr.PaperBox(3)), 1)
	if got := res.Lines[0].BoundaryHi; got != 260 {
		t.Fatalf("boundary hi = %d, want 260 (double hole must not end the region)", got)
	}
}

func TestExp2SearchSpaceBoundary(t *testing.T) {
	// Region extends to the box edge in +d0: boundary = last instance
	// (1200); in −d0 the region ends normally.
	r, _ := stubRunner(func(d0, d1, d2 int) bool { return d0 >= 1100 })
	origin := expr.Instance{1150, 500, 500}
	res := RunExp2(r, []expr.Instance{origin}, DefaultExp2Config(expr.PaperBox(3)), 1)
	ln := res.Lines[0]
	if ln.BoundaryHi != 1200 {
		t.Fatalf("boundary hi = %d, want 1200 (search-space edge)", ln.BoundaryHi)
	}
	if ln.BoundaryLo != 1090 {
		t.Fatalf("boundary lo = %d, want 1090", ln.BoundaryLo)
	}
	if want := 1200 - 1090 - 1; ln.Thickness != want {
		t.Fatalf("thickness = %d, want %d", ln.Thickness, want)
	}
}

func TestExp2NonTraversedDimsAreThin(t *testing.T) {
	// The anomaly condition depends only on d0, so lines along d1 and d2
	// stay anomalous to the box edges (full-range regions), while the d0
	// region is narrow. This mirrors the paper's Figure 10 observation
	// (regions much thinner in d0 than in d1/d2 for AAᵀB).
	r, _ := stubRunner(func(d0, d1, d2 int) bool { return d0 >= 140 && d0 <= 160 })
	origin := expr.Instance{150, 500, 500}
	res := RunExp2(r, []expr.Instance{origin}, DefaultExp2Config(expr.PaperBox(3)), 1)
	byDim := res.ThicknessByDim(3)
	if len(byDim[0]) != 1 || len(byDim[1]) != 1 || len(byDim[2]) != 1 {
		t.Fatalf("thickness grouping %v", byDim)
	}
	if byDim[0][0] >= byDim[1][0] {
		t.Fatalf("d0 thickness %d should be far below d1 thickness %d", byDim[0][0], byDim[1][0])
	}
	if byDim[1][0] != 1200-20-1 {
		t.Fatalf("d1 thickness %d, want full range %d", byDim[1][0], 1200-20-1)
	}
}

func TestExp2ProgressAndTotals(t *testing.T) {
	r, _ := stubRunner(func(d0, d1, d2 int) bool { return d0 >= 140 && d0 <= 160 })
	var lines int
	cfg := DefaultExp2Config(expr.UniformBox(3, 20, 300))
	cfg.Progress = func(line, total int) {
		lines++
		if total != 6 {
			t.Fatalf("total lines %d, want 6", total)
		}
	}
	res := RunExp2(r, []expr.Instance{{150, 100, 100}, {145, 200, 200}}, cfg, 1)
	if lines != 6 {
		t.Fatalf("progress calls %d", lines)
	}
	var n int
	for _, ln := range res.Lines {
		n += len(ln.Samples)
	}
	if n != res.TotalSamples {
		t.Fatalf("TotalSamples %d != sum over lines %d", res.TotalSamples, n)
	}
}

func TestExp2PanicsOnBadConfig(t *testing.T) {
	r, _ := stubRunner(func(d0, d1, d2 int) bool { return false })
	for _, cfg := range []Exp2Config{
		{Box: expr.PaperBox(3), Step: 0, EndRun: 3},
		{Box: expr.PaperBox(3), Step: 10, EndRun: 0},
		{Box: expr.Box{}, Step: 10, EndRun: 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			RunExp2(r, []expr.Instance{{50, 50, 50}}, cfg, 1)
		}()
	}
}

func TestExp3PerfectPredictionWithConsistentStub(t *testing.T) {
	// The stub's cold benchmark times cannot depend on the planted band,
	// so plant anomalies everywhere and give the isolated benchmarks
	// times consistent with the in-sequence behaviour (SYRK slow): the
	// prediction must then be perfect.
	stub2 := &stubExecutor{
		anomalous: func(d0, d1, d2 int) bool { return true },
	}
	stub2.coldTime = func(c kernels.Call) float64 {
		switch {
		case c.Kind == kernels.Syrk:
			return 1.8
		case c.Kind == kernels.Tri2Full:
			return 0.1
		case c.TransA:
			// Algorithm 5's first GEMM (Aᵀ·B): slow, so alg 5 is also
			// mispredicted-free wherever it is cheapest.
			return 1.8
		default:
			return 0.4
		}
	}
	timer := &exec.Timer{Exec: stub2, Reps: 1}
	r := NewRunner(expr.NewAATB(), timer, 0.05)
	origin := expr.Instance{100, 100, 100}
	exp2 := RunExp2(r, []expr.Instance{origin}, DefaultExp2Config(expr.UniformBox(3, 20, 200)), 1)
	res := RunExp3(r, exp2, Exp3Config{Threshold: 0.05}, 1)
	if res.Confusion.Total() != exp2.TotalSamples {
		t.Fatalf("confusion total %d != samples %d", res.Confusion.Total(), exp2.TotalSamples)
	}
	// Every sample is an actual anomaly (stub anomalous everywhere) and
	// prediction (syrk 1.8+0.4 = 2.2 vs gemm+gemm 0.8) flags every sample.
	if res.Confusion.FN != 0 || res.Confusion.FP != 0 {
		t.Fatalf("expected perfect prediction, got %+v", res.Confusion)
	}
	if res.Confusion.Recall() != 1 || res.Confusion.Precision() != 1 {
		t.Fatalf("recall %v precision %v", res.Confusion.Recall(), res.Confusion.Precision())
	}
}

func TestExp3MemoisesBenchmarks(t *testing.T) {
	stub := &stubExecutor{anomalous: func(d0, d1, d2 int) bool { return d0 > 100 }}
	timer := &exec.Timer{Exec: stub, Reps: 1}
	r := NewRunner(expr.NewAATB(), timer, 0.05)
	exp2 := RunExp2(r, []expr.Instance{{150, 100, 100}}, DefaultExp2Config(expr.UniformBox(3, 20, 300)), 1)
	before := stub.benchCalls.Load()
	res := RunExp3(r, exp2, Exp3Config{}, 1)
	benchInvocations := int(stub.benchCalls.Load() - before)
	if res.DistinctCalls == 0 {
		t.Fatal("no calls benchmarked")
	}
	// Reps=1, so invocations == distinct calls benchmarked.
	if benchInvocations != res.DistinctCalls {
		t.Fatalf("bench invocations %d != distinct calls %d (memoisation broken)",
			benchInvocations, res.DistinctCalls)
	}
	// Far fewer distinct calls than (samples × algorithms × calls).
	if res.DistinctCalls >= exp2.TotalSamples*5*2 {
		t.Fatal("memoisation had no effect")
	}
}

func TestExp3DefaultThreshold(t *testing.T) {
	stub := &stubExecutor{anomalous: func(d0, d1, d2 int) bool { return false }}
	timer := &exec.Timer{Exec: stub, Reps: 1}
	r := NewRunner(expr.NewAATB(), timer, 0.05)
	exp2 := RunExp2(r, []expr.Instance{{100, 100, 100}}, DefaultExp2Config(expr.UniformBox(3, 20, 150)), 1)
	res := RunExp3(r, exp2, Exp3Config{}, 1) // zero threshold → default 5%
	if res.Confusion.TP != 0 || res.Confusion.FN != 0 {
		t.Fatalf("anomaly-free space should have no actual positives: %+v", res.Confusion)
	}
}
