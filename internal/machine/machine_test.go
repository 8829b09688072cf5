package machine

import (
	"testing"
	"testing/quick"

	"lamb/internal/kernels"
	"lamb/internal/xrand"
)

func gemmCall(m, n, k int) kernels.Call {
	return kernels.NewGemm(m, n, k, "A", "B", "C", false, false)
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero peak did not panic")
		}
	}()
	New(Config{})
}

func TestDeterminism(t *testing.T) {
	m1, m2 := NewDefault(), NewDefault()
	c := gemmCall(300, 400, 500)
	for rep := uint64(0); rep < 5; rep++ {
		if m1.Time(c, 0.3, rep) != m2.Time(c, 0.3, rep) {
			t.Fatal("identical machines disagree")
		}
	}
}

func TestColdTimePositiveAndFinite(t *testing.T) {
	m := NewDefault()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		dims := [3]int{rng.IntRange(1, 3000), rng.IntRange(1, 3000), rng.IntRange(1, 3000)}
		calls := []kernels.Call{
			gemmCall(dims[0], dims[1], dims[2]),
			kernels.NewSyrk(dims[0], dims[2], "A", "C"),
			kernels.NewSymm(dims[0], dims[1], "A", "B", "C"),
			kernels.NewTri2Full(dims[0], "C"),
		}
		for _, c := range calls {
			ct := m.ColdTime(c)
			if !(ct > 0) || ct > 1e6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEfficiencyInUnitInterval(t *testing.T) {
	m := NewDefault()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		c := gemmCall(rng.IntRange(1, 3000), rng.IntRange(1, 3000), rng.IntRange(1, 3000))
		e := m.Efficiency(c)
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEfficiencyRampsWithSquareSize(t *testing.T) {
	// Figure 1 shape: efficiency grows along square sizes and plateaus.
	m := NewDefault()
	prevGemm := 0.0
	for _, s := range []int{100, 300, 600, 1200, 2400} {
		e := m.Efficiency(gemmCall(s, s, s))
		if e < prevGemm-0.03 { // allow small wiggle
			t.Fatalf("gemm efficiency not ramping: size %d eff %.3f < prev %.3f", s, e, prevGemm)
		}
		prevGemm = e
	}
	if prevGemm < 0.75 {
		t.Fatalf("gemm plateau %.3f, want >= 0.75", prevGemm)
	}
}

func TestKernelEfficiencyOrdering(t *testing.T) {
	// Paper Figure 1: gemm above syrk and symm at small/medium square
	// sizes.
	m := NewDefault()
	for _, s := range []int{100, 200, 400, 800} {
		g := m.Efficiency(gemmCall(s, s, s))
		sy := m.Efficiency(kernels.NewSyrk(s, s, "A", "C"))
		sm := m.Efficiency(kernels.NewSymm(s, s, "A", "B", "C"))
		if g <= sy || g <= sm {
			t.Fatalf("size %d: gemm %.3f should exceed syrk %.3f and symm %.3f", s, g, sy, sm)
		}
	}
}

func TestSkinnyShapesLessEfficient(t *testing.T) {
	m := NewDefault()
	square := m.Efficiency(gemmCall(500, 500, 500))
	skinnyK := m.Efficiency(gemmCall(500, 500, 20))
	skinnyN := m.Efficiency(gemmCall(500, 20, 500))
	if skinnyK >= square || skinnyN >= square {
		t.Fatalf("skinny shapes should be less efficient: square %.3f, k-skinny %.3f, n-skinny %.3f",
			square, skinnyK, skinnyN)
	}
}

func TestVariantStepDiscontinuity(t *testing.T) {
	// Crossing the k=48 threshold must produce an abrupt efficiency jump
	// (the paper's "abrupt change" transition type).
	m := NewDefault()
	below := m.Efficiency(gemmCall(500, 500, 47))
	above := m.Efficiency(gemmCall(500, 500, 48))
	if above <= below*1.05 {
		t.Fatalf("no abrupt jump across k=48: %.4f -> %.4f", below, above)
	}
	// Ablation: with DisableVariantSteps the jump must shrink to ramp level.
	cfg := Default()
	cfg.DisableVariantSteps = true
	sm := New(cfg)
	b2 := sm.Efficiency(gemmCall(500, 500, 47))
	a2 := sm.Efficiency(gemmCall(500, 500, 48))
	if a2/b2 > 1.08 {
		t.Fatalf("smooth config still jumps: %.4f -> %.4f", b2, a2)
	}
}

func TestMemoryBoundShapes(t *testing.T) {
	// A very low-intensity GEMM must be bandwidth-limited: its efficiency
	// (attributed flops over time×peak) must sit well below the compute
	// surface.
	m := NewDefault()
	c := gemmCall(2000, 2000, 2) // AI ≈ 0.5 flops/byte
	e := m.Efficiency(c)
	if e > 0.05 {
		t.Fatalf("memory-bound gemm efficiency %.3f, want tiny", e)
	}
}

func TestWarmBonusBehaviour(t *testing.T) {
	m := NewDefault()
	c := gemmCall(300, 300, 300)
	if m.WarmBonus(c, 0) != 0 {
		t.Fatal("zero hot fraction must give zero bonus")
	}
	b1 := m.WarmBonus(c, 0.5)
	b2 := m.WarmBonus(c, 1.0)
	if !(b2 > b1 && b1 > 0) {
		t.Fatalf("bonus not increasing in hot fraction: %.4f, %.4f", b1, b2)
	}
	if b2 >= 1 {
		t.Fatalf("bonus %.4f must stay below 1", b2)
	}
	// Higher intensity → smaller bonus.
	big := gemmCall(2000, 2000, 2000)
	if m.WarmBonus(big, 1) >= m.WarmBonus(gemmCall(100, 100, 100), 1) {
		t.Fatal("compute-bound call should benefit less from warm inputs")
	}
	// Clamps hotFrac > 1.
	if m.WarmBonus(c, 2) != m.WarmBonus(c, 1) {
		t.Fatal("hotFrac should clamp at 1")
	}
}

func TestWarmCacheAblation(t *testing.T) {
	cfg := Default()
	cfg.DisableWarmCache = true
	m := New(cfg)
	if m.WarmBonus(gemmCall(100, 100, 100), 1) != 0 {
		t.Fatal("DisableWarmCache must zero the bonus")
	}
}

func TestTimeNoiseIsBoundedAndRepDependent(t *testing.T) {
	m := NewDefault()
	c := gemmCall(256, 256, 256)
	cold := m.ColdTime(c)
	seen := map[float64]bool{}
	for rep := uint64(0); rep < 10; rep++ {
		tt := m.Time(c, 0, rep)
		if tt < cold || tt > cold*(1+2*m.Config().Noise) {
			t.Fatalf("rep %d time %.3g outside noise envelope of %.3g", rep, tt, cold)
		}
		seen[tt] = true
	}
	if len(seen) < 5 {
		t.Fatalf("noise should vary across reps, saw %d distinct times", len(seen))
	}
}

func TestWarmTimeFasterThanCold(t *testing.T) {
	m := NewDefault()
	c := gemmCall(200, 200, 200)
	if m.Time(c, 1, 0) >= m.Time(c, 0, 0) {
		t.Fatal("fully warm call should be faster than cold")
	}
}

func TestTri2FullBandwidthBound(t *testing.T) {
	m := NewDefault()
	c := kernels.NewTri2Full(1000, "C")
	want := m.Config().CallOverhead + c.Bytes()/m.Config().MemBandwidth
	if got := m.ColdTime(c); got != want {
		t.Fatalf("tri2full cold time %.3g, want %.3g", got, want)
	}
	if m.Efficiency(c) != 0 {
		t.Fatal("tri2full efficiency must be 0 (no flops)")
	}
}

func TestCacheStateHotFraction(t *testing.T) {
	m := NewDefault()
	cs := m.NewCacheState()
	c1 := kernels.NewGemm(100, 100, 100, "A", "B", "M1", false, false)
	c2 := kernels.NewGemm(100, 100, 100, "M1", "C", "X", false, false)
	if cs.HotFraction(c2) != 0 {
		t.Fatal("cold cache should have zero hot fraction")
	}
	cs.Record(c1)
	hf := cs.HotFraction(c2)
	if hf <= 0 || hf > 1 {
		t.Fatalf("hot fraction after producing M1 = %v, want in (0,1]", hf)
	}
	// M1 and C each are half the input bytes; only M1 is hot... but A and
	// B were also touched by c1 and neither is an input of c2 except M1.
	if hf != 0.5 {
		t.Fatalf("hot fraction = %v, want 0.5 (M1 hot, C cold)", hf)
	}
	cs.Flush()
	if cs.HotFraction(c2) != 0 {
		t.Fatal("flush did not clear the cache")
	}
}

func TestCacheStateEviction(t *testing.T) {
	m := NewDefault()
	cs := m.NewCacheState()
	// One 1500x1500 operand is 18 MB > 13.75 MB LLC: recording a call that
	// touches two such operands must evict the older content entirely.
	big1 := kernels.NewGemm(1500, 1500, 1500, "A", "B", "C", false, false)
	cs.Record(big1)
	// The most recently used operand (the output C) should occupy the
	// cache; A and B should have been truncated/evicted.
	next := kernels.NewGemm(1500, 1500, 1500, "C", "D", "E", false, false)
	hf := cs.HotFraction(next)
	if hf <= 0 {
		t.Fatal("output of previous call should be at least partly hot")
	}
	stale := kernels.NewGemm(1500, 1500, 1500, "A", "B", "F", false, false)
	if got := cs.HotFraction(stale); got > 0.35 {
		t.Fatalf("older operands should be mostly evicted, hot fraction %v", got)
	}
}

func TestCacheStateSmallOperandsAllFit(t *testing.T) {
	m := NewDefault()
	cs := m.NewCacheState()
	c1 := kernels.NewGemm(50, 50, 50, "A", "B", "M1", false, false)
	cs.Record(c1)
	again := kernels.NewGemm(50, 50, 50, "A", "B", "M2", false, false)
	if got := cs.HotFraction(again); got != 1 {
		t.Fatalf("small operands should be fully resident, hot fraction %v", got)
	}
}

func TestCacheStateToleratesMissingInputs(t *testing.T) {
	// A Tri2Full call without its in-place input is malformed (Validate
	// rejects it), but the cache model reads its touches from the kernel
	// table and never indexes past the call's inputs.
	cs := NewDefault().NewCacheState()
	bad := kernels.Call{Kind: kernels.Tri2Full, M: 40, N: 40, Out: "C"}
	if got := cs.HotFraction(bad); got != 0 {
		t.Fatalf("hot fraction of a call without inputs = %v, want 0", got)
	}
	cs.Record(bad)
	if got := cs.HotFraction(kernels.NewTri2Full(40, "C")); got != 1 {
		t.Fatalf("recorded output should be resident, hot fraction %v", got)
	}
}

func TestEfficiencyMonotoneAcrossKindsProperty(t *testing.T) {
	// Time must be positive and warm time never exceeds cold time.
	m := NewDefault()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		c := gemmCall(rng.IntRange(1, 1500), rng.IntRange(1, 1500), rng.IntRange(1, 1500))
		hot := rng.Float64()
		rep := rng.Uint64() % 10
		warm := m.Time(c, hot, rep)
		cold := m.Time(c, 0, rep)
		return warm > 0 && warm <= cold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
