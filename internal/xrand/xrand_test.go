package xrand

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"lamb/internal/cpu"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestNewLabeledIndependence(t *testing.T) {
	a := NewLabeled(7, "exp1")
	b := NewLabeled(7, "exp2")
	if a.Uint64() == b.Uint64() {
		t.Fatal("labels produced identical streams")
	}
	c := NewLabeled(7, "exp1")
	a2 := NewLabeled(7, "exp1")
	if c.Uint64() != a2.Uint64() {
		t.Fatal("same label not reproducible")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(9)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("consecutive splits identical")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("Intn(7) heavily skewed: value %d count %d", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRangeInclusive(t *testing.T) {
	r := New(11)
	sawLo, sawHi := false, false
	for i := 0; i < 2000; i++ {
		v := r.IntRange(3, 8)
		if v < 3 || v > 8 {
			t.Fatalf("IntRange(3,8) = %d", v)
		}
		if v == 3 {
			sawLo = true
		}
		if v == 8 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Fatal("IntRange never hit an endpoint")
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d", got)
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(2,1) did not panic")
		}
	}()
	New(1).IntRange(2, 1)
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestHash64Properties(t *testing.T) {
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 order-insensitive")
	}
	if Hash64(1, 2) != Hash64(1, 2) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64() == Hash64(0) {
		t.Fatal("Hash64 arity-insensitive")
	}
}

func TestUnitFromHashRange(t *testing.T) {
	f := func(h uint64) bool {
		v := UnitFromHash(h)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFillSignedMatchesFloat64 pins FillSigned to the one-at-a-time
// draws, value for value and in the stream position it leaves behind,
// on the four-lane kernel (where the CPU has it) and on the scalar
// loop: at every length to 67 and at 4096, at seeds 0 and MaxUint64
// (whose first step wraps), and at 200k seeds of length 37 (nine lanes
// of four and a tail of one).
func TestFillSignedMatchesFloat64(t *testing.T) {
	check := func(t *testing.T, seed uint64, n int) {
		t.Helper()
		a, b := New(seed), New(seed)
		got := make([]float64, n)
		a.FillSigned(got)
		for i, g := range got {
			if w := 2*b.Float64() - 1; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %#x, n=%d: element %d = %v, draw gives %v", seed, n, i, g, w)
			}
		}
		if a.state != b.state {
			t.Fatalf("seed %#x, n=%d: state %#x after the fill, %#x after the draws", seed, n, a.state, b.state)
		}
	}
	for _, vec := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx2=%v", vec), func(t *testing.T) {
			if vec && !cpu.HasAVX2FMA {
				t.Skip("no AVX2 with FMA on this CPU")
			}
			defer func(v bool) { haveAVX2FMA = v }(haveAVX2FMA)
			haveAVX2FMA = vec
			for _, seed := range []uint64{0, math.MaxUint64, 0xf111} {
				for n := 0; n <= 67; n++ {
					check(t, seed, n)
				}
				check(t, seed, 4096)
			}
			sweep := 200_000
			if testing.Short() {
				sweep = 2_000
			}
			r := New(0x5eed)
			for i := 0; i < sweep; i++ {
				check(t, r.Uint64(), 37)
			}
		})
	}
}

// BenchmarkFillSigned times FillSigned over 4096 elements against the
// draws one at a time, and over one 48-element column and a whole 48×48
// operand, the sizes a fused compute request fills.
func BenchmarkFillSigned(b *testing.B) {
	dst := make([]float64, 4096)
	r := New(1)
	b.Run("fill", func(b *testing.B) {
		for b.Loop() {
			r.FillSigned(dst)
		}
	})
	for _, n := range []int{48, 48 * 48} {
		b.Run(fmt.Sprintf("fill-%d", n), func(b *testing.B) {
			for b.Loop() {
				r.FillSigned(dst[:n])
			}
		})
	}
	b.Run("draws", func(b *testing.B) {
		for b.Loop() {
			for i := range dst {
				dst[i] = 2*r.Float64() - 1
			}
		}
	})
}
