package kernels

import (
	"strings"
	"testing"
	"testing/quick"

	"lamb/internal/xrand"
)

func TestFlopsFormulas(t *testing.T) {
	// The exact formulas from paper §3.1.
	cases := []struct {
		call Call
		want float64
	}{
		{NewGemm(10, 20, 30, "A", "B", "C", false, false), 2 * 10 * 20 * 30},
		{NewSyrk(10, 30, "A", "C"), (10 + 1) * 10 * 30},
		{NewSymm(10, 20, "A", "B", "C"), 2 * 10 * 10 * 20},
		{NewTri2Full(50, "C"), 0},
	}
	for _, c := range cases {
		if got := c.call.Flops(); got != c.want {
			t.Errorf("%s Flops = %v, want %v", c.call, got, c.want)
		}
	}
}

func TestKindValues(t *testing.T) {
	// Every kind's FLOPs, cold-cache bytes and cache touches on its
	// canonical call at m=10, n=20, k=30, as the simulated machine and the
	// profiles read them.
	want := [NumKinds]struct {
		flops, bytes float64
		in           [2]float64
		out          float64
	}{
		Gemm:     {12000, 10400, [2]float64{2400, 4800}, 1600},
		Syrk:     {3300, 3280, [2]float64{2400}, 440},
		Symm:     {4000, 5240, [2]float64{440, 1600}, 1600},
		Tri2Full: {0, 720, [2]float64{400}, 800},
		Potrf:    {385, 880, [2]float64{440}, 440},
		Trsm:     {2000, 3640, [2]float64{440, 1600}, 1600},
		AddSym:   {55, 1320, [2]float64{440, 440}, 440},
	}
	for kind := Kind(0); int(kind) < NumKinds; kind++ {
		c, w := kind.Canonical(10, 20, 30), want[kind]
		in, out := c.Touches()
		if c.Flops() != w.flops || c.Bytes() != w.bytes || in != w.in || out != w.out {
			t.Errorf("%s: flops %v bytes %v touches %v/%v, want %v %v %v/%v",
				c, c.Flops(), c.Bytes(), in, out, w.flops, w.bytes, w.in, w.out)
		}
	}
}

func TestFlopsMatchBruteForceCounts(t *testing.T) {
	// Count multiply-and-add pairs of the textbook algorithms and compare
	// with the closed-form FLOP formulas.
	gemmOps := func(m, n, k int) float64 {
		// m*n dot products of length k, 2 flops per term.
		count := 0
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				count += 2 * k
			}
		}
		return float64(count)
	}
	syrkOps := func(m, k int) float64 {
		// Lower triangle including diagonal: m(m+1)/2 entries, 2k flops each.
		count := 0
		for i := 0; i < m; i++ {
			for j := 0; j <= i; j++ {
				count += 2 * k
			}
		}
		return float64(count)
	}
	rng := xrand.New(99)
	for trial := 0; trial < 30; trial++ {
		m, n, k := rng.IntRange(1, 40), rng.IntRange(1, 40), rng.IntRange(1, 40)
		if got, want := NewGemm(m, n, k, "A", "B", "C", false, false).Flops(), gemmOps(m, n, k); got != want {
			t.Fatalf("gemm(%d,%d,%d) formula %v != counted %v", m, n, k, got, want)
		}
		if got, want := NewSyrk(m, k, "A", "C").Flops(), syrkOps(m, k); got != want {
			t.Fatalf("syrk(%d,%d) formula %v != counted %v", m, k, got, want)
		}
		// SYMM cost is that of a GEMM with square A: 2*m*m*n.
		if got, want := NewSymm(m, n, "A", "B", "C").Flops(), gemmOps(m, n, m); got != want {
			t.Fatalf("symm(%d,%d) formula %v != counted %v", m, n, got, want)
		}
	}
}

func TestSyrkHalvesGemmAsymptotically(t *testing.T) {
	// SYRK computes one triangle, so for the same m×m·k product it costs
	// (m+1)mk vs GEMM's 2m²k — the ratio tends to 1/2 from above.
	syrk := NewSyrk(1000, 500, "A", "C").Flops()
	gemm := NewGemm(1000, 1000, 500, "A", "At", "C", false, false).Flops()
	ratio := syrk / gemm
	if ratio <= 0.5 || ratio > 0.51 {
		t.Fatalf("syrk/gemm ratio = %v, want in (0.5, 0.51]", ratio)
	}
}

func TestBytesPositive(t *testing.T) {
	calls := []Call{
		NewGemm(5, 6, 7, "A", "B", "C", false, false),
		NewSyrk(5, 7, "A", "C"),
		NewSymm(5, 6, "A", "B", "C"),
		NewTri2Full(5, "C"),
	}
	for _, c := range calls {
		if c.Bytes() <= 0 {
			t.Errorf("%s Bytes = %v, want > 0", c, c.Bytes())
		}
	}
}

func TestIntensityGrowsWithSize(t *testing.T) {
	small := NewGemm(20, 20, 20, "A", "B", "C", false, false).Intensity()
	large := NewGemm(1000, 1000, 1000, "A", "B", "C", false, false).Intensity()
	if large <= small {
		t.Fatalf("intensity should grow with size: small %v, large %v", small, large)
	}
	if NewTri2Full(100, "C").Intensity() != 0 {
		t.Fatal("tri2full intensity must be 0")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Gemm: "gemm", Syrk: "syrk", Symm: "symm", Tri2Full: "tri2full"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d String = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Error("unknown kind should render as Kind(n)")
	}
}

func TestCallString(t *testing.T) {
	c := NewGemm(1, 2, 3, "A", "B", "C", true, false)
	s := c.String()
	if !strings.Contains(s, "gemm") || !strings.Contains(s, "m=1") || !strings.Contains(s, "Aᵀ") {
		t.Errorf("String = %q", s)
	}
	if strings.Contains(s, "Bᵀ") {
		t.Errorf("String = %q should not mention Bᵀ", s)
	}
}

func TestMemoKeyIgnoresOperandIDs(t *testing.T) {
	a := NewGemm(3, 4, 5, "A", "B", "C", false, true)
	b := NewGemm(3, 4, 5, "X", "Y", "Z", false, true)
	if a.MemoKey() != b.MemoKey() {
		t.Fatal("keys should match regardless of operand IDs")
	}
	c := NewGemm(3, 4, 5, "A", "B", "C", true, true)
	if a.MemoKey() == c.MemoKey() {
		t.Fatal("keys should differ on transposition")
	}
}

func TestValidateAcceptsConstructors(t *testing.T) {
	calls := []Call{
		NewGemm(5, 6, 7, "A", "B", "C", true, true),
		NewSyrkT(5, 7, "A", "C"),
		NewTrsm(5, 6, "L", "B", true),
	}
	for kind := Kind(0); int(kind) < NumKinds; kind++ {
		calls = append(calls, kind.Canonical(5, 6, 7))
	}
	for _, c := range calls {
		if err := c.Validate(); err != nil {
			t.Errorf("%s Validate: %v", c, err)
		}
	}
}

func TestValidateRejectsBadCalls(t *testing.T) {
	bad := []Call{
		{Kind: Gemm, M: 0, N: 1, K: 1, In: []string{"A", "B"}, Out: "C"},
		{Kind: Gemm, M: 1, N: 1, K: 1, In: []string{"A"}, Out: "C"},
		{Kind: Syrk, M: 4, N: 5, K: 3, In: []string{"A"}, Out: "C"},
		{Kind: Syrk, M: 4, N: 4, K: 3, In: []string{"A", "B"}, Out: "C"},
		{Kind: Symm, M: 4, N: 5, K: 3, In: []string{"A", "B"}, Out: "C"},
		{Kind: Symm, M: 4, N: 4, K: 4, In: []string{"A"}, Out: "C"},
		{Kind: Symm, M: 4, N: 4, K: 4, In: []string{"A", "B", "D"}, Out: "C"},
		{Kind: Tri2Full, M: 4, N: 5, In: []string{"C"}, Out: "C"},
		{Kind: Tri2Full, M: 4, N: 4, Out: "C"},
		{Kind: Tri2Full, M: 4, N: 4, In: []string{"A"}, Out: "C"},
		{Kind: Gemm, M: 1, N: 1, K: 1, In: []string{"A", "B"}, Out: ""},
		{Kind: Kind(77), M: 1, N: 1, K: 1, Out: "C"},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%s): Validate accepted invalid call", i, c)
		}
	}
	// SYMM and Tri2Full read their input counts from the kernel table.
	texts := map[string]Call{
		"kernels: symm needs 2 inputs, has 1":                               {Kind: Symm, M: 4, N: 4, K: 4, In: []string{"A"}, Out: "C"},
		"kernels: tri2full must mirror in place, got tri2full(m=4,n=4,k=0)": {Kind: Tri2Full, M: 4, N: 4, Out: "C"},
		"kernels: unknown kind 77":                                          {Kind: Kind(77), M: 1, N: 1, K: 1, Out: "C"},
	}
	for want, c := range texts {
		if err := c.Validate(); err == nil || err.Error() != want {
			t.Errorf("%s Validate = %v, want %q", c, err, want)
		}
	}
}

func TestFlopsNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		m, n, k := rng.IntRange(1, 2000), rng.IntRange(1, 2000), rng.IntRange(1, 2000)
		for kind := Kind(0); int(kind) < NumKinds; kind++ {
			if c := kind.Canonical(m, n, k); c.Flops() < 0 || c.Bytes() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
