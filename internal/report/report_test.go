package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	err := Table(&b, [][]string{
		{"name", "value"},
		{"alpha", "1"},
		{"b", "22222"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name ") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("no separator: %q", lines[1])
	}
	if !strings.Contains(lines[3], "22222") {
		t.Fatalf("row lost: %q", lines[3])
	}
}

func TestTableEmpty(t *testing.T) {
	var b strings.Builder
	if err := Table(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatal("empty table should render nothing")
	}
}

func TestScatterRendersPoints(t *testing.T) {
	var b strings.Builder
	xs := []float64{0.1, 0.1, 0.5, 0.9}
	ys := []float64{0.1, 0.1, 0.5, 0.9}
	if err := Scatter(&b, xs, ys, 0, 1, 0, 1, 20, 10, "flop score", "time score"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "time score") || !strings.Contains(out, "flop score") {
		t.Fatalf("labels missing:\n%s", out)
	}
	marks := strings.Count(out, ".") + strings.Count(out, ":")
	if marks < 3 {
		t.Fatalf("expected at least 3 marks, got %d:\n%s", marks, out)
	}
}

func TestScatterErrors(t *testing.T) {
	var b strings.Builder
	if err := Scatter(&b, []float64{1}, nil, 0, 1, 0, 1, 10, 10, "x", "y"); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := Scatter(&b, nil, nil, 1, 0, 0, 1, 10, 10, "x", "y"); err == nil {
		t.Fatal("inverted x range accepted")
	}
	if err := Scatter(&b, nil, nil, 0, 1, 0, 1, 1, 10, "x", "y"); err == nil {
		t.Fatal("degenerate width accepted")
	}
}

func TestScatterClampsOutliers(t *testing.T) {
	var b strings.Builder
	if err := Scatter(&b, []float64{-5, 99}, []float64{-5, 99}, 0, 1, 0, 1, 10, 5, "x", "y"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), ".") {
		t.Fatal("outliers should clamp onto the grid")
	}
}

func TestThicknessDistribution(t *testing.T) {
	var b strings.Builder
	byDim := [][]int{
		{10, 30, 20, 50, 40},
		{},
		{100},
	}
	if err := ThicknessDistribution(&b, byDim); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "d0") || !strings.Contains(out, "d2") {
		t.Fatalf("dims missing:\n%s", out)
	}
	if !strings.Contains(out, "30") { // median of d0
		t.Fatalf("median missing:\n%s", out)
	}
	if !strings.Contains(out, "-") { // empty dim placeholder
		t.Fatalf("empty dim placeholder missing:\n%s", out)
	}
}

func TestLinePlot(t *testing.T) {
	var b strings.Builder
	xs := []int{100, 110, 120, 130}
	ys := []float64{0.2, 0.4, 0.6, 0.8}
	if err := Line(&b, xs, ys, 0, 1, 5, "alg 1 efficiency"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "alg 1 efficiency") {
		t.Fatalf("label missing:\n%s", out)
	}
	if strings.Count(out, "*") != 4 {
		t.Fatalf("expected 4 marks:\n%s", out)
	}
	if !strings.Contains(out, "100 .. 130") {
		t.Fatalf("x range missing:\n%s", out)
	}
}

func TestLineErrors(t *testing.T) {
	var b strings.Builder
	if err := Line(&b, []int{1}, nil, 0, 1, 5, "x"); err == nil {
		t.Fatal("mismatch accepted")
	}
	if err := Line(&b, nil, nil, 0, 1, 5, "x"); err != nil {
		t.Fatal("empty line should be a no-op")
	}
}

func TestCSVQuoting(t *testing.T) {
	var b strings.Builder
	err := CSV(&b, [][]string{
		{"a", "b,c", `d"e`},
		{"1", "2", "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,\"b,c\",\"d\"\"e\"\n1,2,3\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}
