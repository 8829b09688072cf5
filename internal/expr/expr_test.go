package expr

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lamb/internal/ir"
	"lamb/internal/kernels"
	"lamb/internal/xrand"
)

// chainPaperFlops returns the FLOP counts of the paper's Algorithms 1–6
// for the ABCD chain, straight from §3.2.1.
func chainPaperFlops(d Instance) []float64 {
	d0, d1, d2, d3, d4 := float64(d[0]), float64(d[1]), float64(d[2]), float64(d[3]), float64(d[4])
	return []float64{
		2 * d0 * (d1*d2 + d2*d3 + d3*d4),
		2 * d2 * (d0*d1 + d0*d4 + d3*d4),
		2 * d3 * (d0*d1 + d0*d4 + d1*d2),
		2 * d1 * (d0*d4 + d2*d3 + d3*d4),
		2 * d2 * (d0*d1 + d0*d4 + d3*d4),
		2 * d4 * (d0*d1 + d1*d2 + d2*d3),
	}
}

// aatbPaperFlops returns the FLOP counts of the paper's Algorithms 1–5
// for AAᵀB, straight from §3.2.2.
func aatbPaperFlops(d Instance) []float64 {
	d0, d1, d2 := float64(d[0]), float64(d[1]), float64(d[2])
	return []float64{
		d0 * ((d0+1)*d1 + 2*d0*d2),
		d0 * ((d0+1)*d1 + 2*d0*d2),
		2 * d0 * d0 * (d1 + d2),
		2 * d0 * d0 * (d1 + d2),
		4 * d0 * d1 * d2,
	}
}

func TestChainABCDEnumeratesSixAlgorithms(t *testing.T) {
	c := NewChainABCD()
	inst := Instance{3, 5, 7, 11, 13}
	algs := c.Algorithms(inst)
	if len(algs) != 6 {
		t.Fatalf("got %d algorithms, want 6", len(algs))
	}
	if c.NumAlgorithms() != 6 {
		t.Fatalf("NumAlgorithms = %d, want 6", c.NumAlgorithms())
	}
	for i, a := range algs {
		if a.Index != i+1 {
			t.Errorf("algorithm %d has Index %d", i, a.Index)
		}
		if len(a.Calls) != 3 {
			t.Errorf("algorithm %d has %d calls, want 3", i+1, len(a.Calls))
		}
		if err := a.Validate(); err != nil {
			t.Errorf("algorithm %d invalid: %v", i+1, err)
		}
		for _, call := range a.Calls {
			if call.Kind != kernels.Gemm {
				t.Errorf("chain algorithm %d uses %v, want gemm only", i+1, call.Kind)
			}
		}
	}
}

func TestChainABCDMatchesPaperOrderAndFlops(t *testing.T) {
	// The DFS must visit the paper's Algorithms 1–6 in the paper's order,
	// with the paper's FLOP counts.
	c := NewChainABCD()
	inst := Instance{331, 279, 338, 854, 427} // an anomaly instance from Fig. 8
	algs := c.Algorithms(inst)
	want := chainPaperFlops(inst)
	wantNames := []string{
		"M1:=A·B; M2:=M1·C; X:=M2·D",
		"M1:=A·B; M2:=C·D; X:=M1·M2",
		"M1:=B·C; M2:=A·M1; X:=M2·D",
		"M1:=B·C; M2:=M1·D; X:=A·M2",
		"M1:=C·D; M2:=A·B; X:=M2·M1",
		"M1:=C·D; M2:=B·M1; X:=A·M2",
	}
	for i, a := range algs {
		if a.Flops() != want[i] {
			t.Errorf("algorithm %d flops = %v, want %v", i+1, a.Flops(), want[i])
		}
		if a.Name != wantNames[i] {
			t.Errorf("algorithm %d name = %q, want %q", i+1, a.Name, wantNames[i])
		}
	}
	// Algorithms 2 and 5 share a FLOP count but differ in call order.
	if algs[1].Flops() != algs[4].Flops() {
		t.Error("algorithms 2 and 5 should share a FLOP count")
	}
	if algs[1].Calls[0].MemoKey() == algs[4].Calls[0].MemoKey() {
		t.Error("algorithms 2 and 5 should differ in first call")
	}
}

func TestChainFlopsPropertyAgainstPaperFormulas(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		inst := make(Instance, 5)
		for i := range inst {
			inst[i] = rng.IntRange(1, 500)
		}
		algs := NewChainABCD().Algorithms(inst)
		want := chainPaperFlops(inst)
		for i := range algs {
			if algs[i].Flops() != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChainGeneralCounts(t *testing.T) {
	for terms, want := range map[int]int{2: 1, 3: 2, 4: 6, 5: 24, 6: 120} {
		c := mustChain(terms)
		inst := make(Instance, terms+1)
		for i := range inst {
			inst[i] = 2 + i
		}
		algs := c.Algorithms(inst)
		if len(algs) != want {
			t.Errorf("chain-%d: %d algorithms, want %d", terms, len(algs), want)
		}
		if c.NumAlgorithms() != want {
			t.Errorf("chain-%d: NumAlgorithms = %d, want %d", terms, c.NumAlgorithms(), want)
		}
		for _, a := range algs {
			if err := a.Validate(); err != nil {
				t.Fatalf("chain-%d %q: %v", terms, a.Name, err)
			}
			if len(a.Calls) != terms-1 {
				t.Fatalf("chain-%d %q has %d calls", terms, a.Name, len(a.Calls))
			}
		}
	}
}

func TestChainAlgorithmNamesDistinct(t *testing.T) {
	algs := mustChain(5).Algorithms(Instance{2, 3, 4, 5, 6, 7})
	seen := map[string]bool{}
	for _, a := range algs {
		if seen[a.Name] {
			t.Fatalf("duplicate algorithm name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestMinFlopsParenthesisationClassic(t *testing.T) {
	// CLRS example: dims (30,35,15,5,10,20,25) has optimum 15125 mults →
	// 30250 FLOPs at 2 flops per multiply-add.
	flops, tree := MinFlopsParenthesisation([]int{30, 35, 15, 5, 10, 20, 25})
	if flops != 2*15125 {
		t.Fatalf("DP optimum = %v, want %v", flops, 2*15125)
	}
	if tree != "((A(BC))((DE)F))" {
		t.Fatalf("DP tree = %q", tree)
	}
}

func TestDPMatchesEnumeratedMinimumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		terms := rng.IntRange(2, 6)
		dims := make([]int, terms+1)
		inst := make(Instance, terms+1)
		for i := range dims {
			dims[i] = rng.IntRange(1, 120)
			inst[i] = dims[i]
		}
		algs := mustChain(terms).Algorithms(inst)
		best := algs[0].Flops()
		for _, a := range algs[1:] {
			if f := a.Flops(); f < best {
				best = f
			}
		}
		dp, _ := MinFlopsParenthesisation(dims)
		return dp == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAATBEnumeratesFiveAlgorithms(t *testing.T) {
	e := NewAATB()
	inst := Instance{80, 514, 768} // an anomaly instance from Fig. 11
	algs := e.Algorithms(inst)
	if len(algs) != 5 {
		t.Fatalf("got %d algorithms, want 5", len(algs))
	}
	want := aatbPaperFlops(inst)
	for i, a := range algs {
		if err := a.Validate(); err != nil {
			t.Errorf("algorithm %d invalid: %v", i+1, err)
		}
		if a.Flops() != want[i] {
			t.Errorf("algorithm %d flops = %v, want %v", i+1, a.Flops(), want[i])
		}
	}
	// Kernel usage per the paper's Figure 5.
	kindsOf := func(a Algorithm) string {
		var parts []string
		for _, c := range a.Calls {
			parts = append(parts, c.Kind.String())
		}
		return strings.Join(parts, "+")
	}
	wantKinds := []string{
		"syrk+symm",
		"syrk+tri2full+gemm",
		"gemm+symm",
		"gemm+gemm",
		"gemm+gemm",
	}
	for i, a := range algs {
		if kindsOf(a) != wantKinds[i] {
			t.Errorf("algorithm %d kernels = %s, want %s", i+1, kindsOf(a), wantKinds[i])
		}
	}
}

func TestAATBFlopsPairsAndOrdering(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		// d0 ≥ 2: at d0 = 1 the SYRK and GEMM counts for A·Aᵀ coincide.
		inst := Instance{rng.IntRange(2, 800), rng.IntRange(1, 800), rng.IntRange(1, 800)}
		algs := NewAATB().Algorithms(inst)
		// 1 and 2 tie; 3 and 4 tie; 1/2 strictly cheaper than 3/4.
		if algs[0].Flops() != algs[1].Flops() || algs[2].Flops() != algs[3].Flops() {
			return false
		}
		return algs[0].Flops() < algs[2].Flops()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAATBAlg5TransFlags(t *testing.T) {
	algs := NewAATB().Algorithms(Instance{10, 20, 30})
	a5 := algs[4]
	if !a5.Calls[0].TransA || a5.Calls[0].TransB {
		t.Fatalf("alg 5 first call should be Aᵀ·B, got %v", a5.Calls[0])
	}
	if a5.Calls[0].M != 20 || a5.Calls[0].N != 30 || a5.Calls[0].K != 10 {
		t.Fatalf("alg 5 first call dims %v", a5.Calls[0])
	}
	a3 := algs[2]
	if a3.Calls[0].TransA || !a3.Calls[0].TransB {
		t.Fatalf("alg 3 first call should be A·Aᵀ, got %v", a3.Calls[0])
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	if err := NewChainABCD().Validate(Instance{1, 2, 3}); err == nil {
		t.Error("short chain instance accepted")
	}
	if err := NewChainABCD().Validate(Instance{1, 2, 3, 0, 5}); err == nil {
		t.Error("zero dimension accepted")
	}
	if err := NewAATB().Validate(Instance{1, 2, 3, 4}); err == nil {
		t.Error("long AATB instance accepted")
	}
	if _, err := NewChain(1); err == nil || err.Error() != "expr: chain needs at least 2 terms, has 1" {
		t.Errorf("1-term chain: error %v", err)
	}
	for _, terms := range []int{24, 26, 27} {
		want := fmt.Sprintf("expr: chain of %d terms exceeds the naming limit of 23", terms)
		if _, err := NewChain(terms); err == nil || err.Error() != want {
			t.Errorf("%d-term chain: error %v, want %q", terms, err, want)
		}
	}
}

// TestChainCountLimit checks the chain lengths the enumerator's budget
// admits: 9 terms enumerate all 8! orders, and 10 terms and more, whose
// (n−1)! passes ir.MaxAlgorithms, are refused before anything is
// enumerated.
func TestChainCountLimit(t *testing.T) {
	c9, err := NewChain(9)
	if err != nil {
		t.Fatalf("9-term chain rejected: %v", err)
	}
	if got, want := c9.NumAlgorithms(), 40320; got != want {
		t.Errorf("9-term chain counts %d algorithms, want 8! = %d", got, want)
	}
	enums := ir.Enumerations()
	for _, terms := range []int{10, 21, 22, 23} {
		if _, err := NewChain(terms); !errors.Is(err, ir.ErrTooManyAlgorithms) {
			t.Errorf("%d-term chain: error %v, want ErrTooManyAlgorithms", terms, err)
		}
	}
	if got := ir.Enumerations(); got != enums {
		t.Errorf("refused chains enumerated %d sets", got-enums)
	}
}

// mustChain returns the n-term chain, panicking if NewChain refuses it.
func mustChain(terms int) Generic {
	c, err := NewChain(terms)
	if err != nil {
		panic(err)
	}
	return c
}

func TestAlgorithmValidateCatchesCorruption(t *testing.T) {
	algs := NewAATB().Algorithms(Instance{4, 5, 6})
	a := algs[0]
	a.Calls[0].Out = "nowhere"
	if err := a.Validate(); err == nil {
		t.Error("unknown operand not caught")
	}
	b := NewAATB().Algorithms(Instance{4, 5, 6})[0]
	b.Shapes["M1"] = Shape{Rows: 99, Cols: 99}
	if err := b.Validate(); err == nil {
		t.Error("shape mismatch not caught")
	}
	var empty Algorithm
	if err := empty.Validate(); err == nil {
		t.Error("empty algorithm not caught")
	}
}

func TestInstanceStringAndClone(t *testing.T) {
	for want, inst := range map[string]Instance{
		"(1,2,3)": {1, 2, 3},
		"()":      {},
		"(0,-3)":  {0, -3},
		"(9223372036854775807,-9223372036854775808,7,8,9,10,11,12,13)": {math.MaxInt64, math.MinInt64, 7, 8, 9, 10, 11, 12, 13},
	} {
		if got := inst.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	inst := Instance{1, 2, 3}
	c := inst.Clone()
	c[0] = 99
	if inst[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestBoxSampleAndContains(t *testing.T) {
	b := PaperBox(3)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(21)
	for i := 0; i < 200; i++ {
		inst := b.Sample(rng)
		if !b.Contains(inst) {
			t.Fatalf("sample %v outside box", inst)
		}
	}
	if b.Contains(Instance{19, 30, 40}) || b.Contains(Instance{30, 30, 1201}) {
		t.Fatal("Contains accepted out-of-box instance")
	}
	if b.Contains(Instance{30, 30}) {
		t.Fatal("Contains accepted wrong arity")
	}
}

func TestBoxValidateRejectsBad(t *testing.T) {
	bad := []Box{
		{Lo: []int{1}, Hi: []int{2, 3}},
		{},
		{Lo: []int{0}, Hi: []int{5}},
		{Lo: []int{5}, Hi: []int{4}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("box %d accepted", i)
		}
	}
}

func TestBoxSampleCoversEndpoints(t *testing.T) {
	b := UniformBox(1, 3, 5)
	rng := xrand.New(33)
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[b.Sample(rng)[0]] = true
	}
	for v := 3; v <= 5; v++ {
		if !seen[v] {
			t.Fatalf("value %d never sampled", v)
		}
	}
}
