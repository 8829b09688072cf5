package xrand

import (
	"math"
	"testing"
	"testing/quick"
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
// draws, value for value and in the stream position it leaves behind.
func TestFillSignedMatchesFloat64(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		a, b := New(uint64(0xf111+n)), New(uint64(0xf111+n))
		got := make([]float64, n)
		a.FillSigned(got)
		for i, g := range got {
			if w := 2*b.Float64() - 1; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("n=%d: element %d = %v, draw gives %v", n, i, g, w)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: streams diverge after the fill", n)
		}
	}
}

func BenchmarkFillSigned(b *testing.B) {
	dst := make([]float64, 4096)
	r := New(1)
	b.Run("fill", func(b *testing.B) {
		for b.Loop() {
			r.FillSigned(dst)
		}
	})
	b.Run("draws", func(b *testing.B) {
		for b.Loop() {
			for i := range dst {
				dst[i] = 2*r.Float64() - 1
			}
		}
	})
}
