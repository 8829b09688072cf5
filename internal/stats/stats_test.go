package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lamb/internal/xrand"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -5, 0}, -1},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Median(nil)
}

func TestMedianBetweenMinAndMaxProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(1, 30)
		xs := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		m := Median(xs)
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty summary should be zeroed")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", s.StdDev())
	}
}

func TestConfusionMatrix(t *testing.T) {
	var c ConfusionMatrix
	// Reproduce the paper's Table 1 counts.
	c.TN, c.FP, c.FN, c.TP = 7202, 656, 1290, 15839
	if c.Total() != 24987 {
		t.Fatalf("total = %d, want 24987", c.Total())
	}
	if r := c.Recall(); math.Abs(r-0.9247) > 0.001 {
		t.Fatalf("recall = %v, want ≈0.925 (paper: ~92%%)", r)
	}
	if p := c.Precision(); math.Abs(p-0.9602) > 0.001 {
		t.Fatalf("precision = %v, want ≈0.960 (paper: ~96%%)", p)
	}
	if a := c.Accuracy(); a <= 0.9 || a >= 1 {
		t.Fatalf("accuracy = %v", a)
	}
}

func TestConfusionMatrixAdd(t *testing.T) {
	var c ConfusionMatrix
	c.Add(true, true)
	c.Add(true, false)
	c.Add(false, true)
	c.Add(false, false)
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Fatalf("matrix = %+v", c)
	}
	s := c.String()
	if !strings.Contains(s, "Predicted") || !strings.Contains(s, "Actual") {
		t.Fatalf("String = %q", s)
	}
}

func TestConfusionMatrixEmptyRates(t *testing.T) {
	var c ConfusionMatrix
	if c.Recall() != 0 || c.Precision() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty matrix rates should be 0")
	}
}
