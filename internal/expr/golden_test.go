package expr

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"lamb/internal/kernels"
)

// Golden tests pinning the generated algorithm sets for the three
// original expressions — the paper's ChainABCD (Figure 3) and AAᵀB
// (Figure 5) plus the LstSq extension — to the exact pre-refactor
// hand-coded sets: index, name, call sequence (kind, dims, transposes,
// operand IDs), shapes, inputs, and FLOP counts. The IR enumerator must
// reproduce these byte for byte; any diff here is a behaviour change of
// the modelling core, not a refactor.

func shp(r, c int) Shape { return Shape{Rows: r, Cols: c} }

// golden is one pinned algorithm.
type golden struct {
	name   string
	calls  []kernels.Call
	shapes map[string]Shape
	flops  float64
}

func checkGolden(t *testing.T, algs []Algorithm, want []golden, inputs, spdInputs []string) {
	t.Helper()
	if len(algs) != len(want) {
		t.Fatalf("got %d algorithms, want %d", len(algs), len(want))
	}
	for i, g := range want {
		a := algs[i]
		if a.Index != i+1 {
			t.Errorf("algorithm %d: Index = %d", i+1, a.Index)
		}
		if a.Name != g.name {
			t.Errorf("algorithm %d: name\n got %q\nwant %q", i+1, a.Name, g.name)
		}
		if !reflect.DeepEqual(a.Calls, g.calls) {
			t.Errorf("algorithm %d: calls\n got %#v\nwant %#v", i+1, a.Calls, g.calls)
		}
		if !reflect.DeepEqual(a.Shapes, g.shapes) {
			t.Errorf("algorithm %d: shapes\n got %v\nwant %v", i+1, a.Shapes, g.shapes)
		}
		if a.Flops() != g.flops {
			t.Errorf("algorithm %d: flops = %v, want %v", i+1, a.Flops(), g.flops)
		}
		if !reflect.DeepEqual(a.Inputs, inputs) {
			t.Errorf("algorithm %d: inputs %v, want %v", i+1, a.Inputs, inputs)
		}
		if !reflect.DeepEqual(a.SPDInputs, spdInputs) {
			t.Errorf("algorithm %d: SPD inputs %v, want %v", i+1, a.SPDInputs, spdInputs)
		}
		if a.Output != "X" {
			t.Errorf("algorithm %d: output %q", i+1, a.Output)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("algorithm %d: %v", i+1, err)
		}
	}
}

func TestGoldenChainABCD(t *testing.T) {
	// The anomaly instance from the paper's Figure 8; the six algorithms
	// and their order are the paper's Figure 3.
	inst := Instance{331, 279, 338, 854, 427}
	base := map[string]Shape{
		"A": shp(331, 279), "B": shp(279, 338), "C": shp(338, 854), "D": shp(854, 427),
		"X": shp(331, 427),
	}
	sh := func(m1, m2 Shape) map[string]Shape {
		out := map[string]Shape{"M1": m1, "M2": m2}
		for id, s := range base {
			out[id] = s
		}
		return out
	}
	want := []golden{
		{
			name: "M1:=A·B; M2:=M1·C; X:=M2·D",
			calls: []kernels.Call{
				kernels.NewGemm(331, 338, 279, "A", "B", "M1", false, false),
				kernels.NewGemm(331, 854, 338, "M1", "C", "M2", false, false),
				kernels.NewGemm(331, 427, 854, "M2", "D", "X", false, false),
			},
			shapes: sh(shp(331, 338), shp(331, 854)),
			flops:  494_919_144,
		},
		{
			name: "M1:=A·B; M2:=C·D; X:=M1·M2",
			calls: []kernels.Call{
				kernels.NewGemm(331, 338, 279, "A", "B", "M1", false, false),
				kernels.NewGemm(338, 427, 854, "C", "D", "M2", false, false),
				kernels.NewGemm(331, 427, 338, "M1", "M2", "X", false, false),
			},
			shapes: sh(shp(331, 338), shp(338, 427)),
			flops:  404_480_544,
		},
		{
			name: "M1:=B·C; M2:=A·M1; X:=M2·D",
			calls: []kernels.Call{
				kernels.NewGemm(279, 854, 338, "B", "C", "M1", false, false),
				kernels.NewGemm(331, 854, 279, "A", "M1", "M2", false, false),
				kernels.NewGemm(331, 427, 854, "M2", "D", "X", false, false),
			},
			shapes: sh(shp(279, 854), shp(331, 854)),
			flops:  560_203_504,
		},
		{
			name: "M1:=B·C; M2:=M1·D; X:=A·M2",
			calls: []kernels.Call{
				kernels.NewGemm(279, 854, 338, "B", "C", "M1", false, false),
				kernels.NewGemm(279, 427, 854, "M1", "D", "M2", false, false),
				kernels.NewGemm(331, 427, 279, "A", "M2", "X", false, false),
			},
			shapes: sh(shp(279, 854), shp(279, 427)),
			flops:  443_413_026,
		},
		{
			name: "M1:=C·D; M2:=A·B; X:=M2·M1",
			calls: []kernels.Call{
				kernels.NewGemm(338, 427, 854, "C", "D", "M1", false, false),
				kernels.NewGemm(331, 338, 279, "A", "B", "M2", false, false),
				kernels.NewGemm(331, 427, 338, "M2", "M1", "X", false, false),
			},
			shapes: sh(shp(338, 427), shp(331, 338)),
			flops:  404_480_544,
		},
		{
			name: "M1:=C·D; M2:=B·M1; X:=A·M2",
			calls: []kernels.Call{
				kernels.NewGemm(338, 427, 854, "C", "D", "M1", false, false),
				kernels.NewGemm(279, 427, 338, "B", "M1", "M2", false, false),
				kernels.NewGemm(331, 427, 279, "A", "M2", "X", false, false),
			},
			shapes: sh(shp(338, 427), shp(279, 427)),
			flops:  405_908_762,
		},
	}
	checkGolden(t, NewChainABCD().Algorithms(inst), want, []string{"A", "B", "C", "D"}, nil)
}

func TestGoldenAATB(t *testing.T) {
	// The anomaly instance from the paper's Figure 11; the five
	// algorithms and their order are the paper's Figure 5.
	inst := Instance{80, 514, 768}
	sh := func(m1 Shape) map[string]Shape {
		return map[string]Shape{
			"A": shp(80, 514), "B": shp(80, 768), "M1": m1, "X": shp(80, 768),
		}
	}
	sq, rect := shp(80, 80), shp(514, 768)
	want := []golden{
		{
			name: "M1:=syrk(A·Aᵀ); X:=symm(M1·B)",
			calls: []kernels.Call{
				kernels.NewSyrk(80, 514, "A", "M1"),
				kernels.NewSymm(80, 768, "M1", "B", "X"),
			},
			shapes: sh(sq), flops: 13_161_120,
		},
		{
			name: "M1:=syrk(A·Aᵀ); tri2full(M1); X:=gemm(M1·B)",
			calls: []kernels.Call{
				kernels.NewSyrk(80, 514, "A", "M1"),
				kernels.NewTri2Full(80, "M1"),
				kernels.NewGemm(80, 768, 80, "M1", "B", "X", false, false),
			},
			shapes: sh(sq), flops: 13_161_120,
		},
		{
			name: "M1:=gemm(A·Aᵀ); X:=symm(M1·B)",
			calls: []kernels.Call{
				kernels.NewGemm(80, 80, 514, "A", "A", "M1", false, true),
				kernels.NewSymm(80, 768, "M1", "B", "X"),
			},
			shapes: sh(sq), flops: 16_409_600,
		},
		{
			name: "M1:=gemm(A·Aᵀ); X:=gemm(M1·B)",
			calls: []kernels.Call{
				kernels.NewGemm(80, 80, 514, "A", "A", "M1", false, true),
				kernels.NewGemm(80, 768, 80, "M1", "B", "X", false, false),
			},
			shapes: sh(sq), flops: 16_409_600,
		},
		{
			name: "M1:=gemm(Aᵀ·B); X:=gemm(A·M1)",
			calls: []kernels.Call{
				kernels.NewGemm(514, 768, 80, "A", "B", "M1", true, false),
				kernels.NewGemm(80, 768, 514, "A", "M1", "X", false, false),
			},
			shapes: sh(rect), flops: 126_320_640,
		},
	}
	checkGolden(t, NewAATB().Algorithms(inst), want, []string{"A", "B"}, nil)
}

func TestGoldenATAB(t *testing.T) {
	// The mirror of the paper's AAᵀB golden instance: A transposed, so
	// the Gram matrix is the 80×80 normal-equations AᵀA. Pins the set
	// generated by the transposed-SYRK fragment widening; FLOP totals
	// match TestGoldenAATB exactly, algorithm for algorithm.
	inst := Instance{514, 80, 768}
	sh := func(m1 Shape) map[string]Shape {
		return map[string]Shape{
			"A": shp(514, 80), "B": shp(80, 768), "M1": m1, "X": shp(80, 768),
		}
	}
	sq, rect := shp(80, 80), shp(514, 768)
	want := []golden{
		{
			name: "M1:=syrk(Aᵀ·A); X:=symm(M1·B)",
			calls: []kernels.Call{
				kernels.NewSyrkT(80, 514, "A", "M1"),
				kernels.NewSymm(80, 768, "M1", "B", "X"),
			},
			shapes: sh(sq), flops: 13_161_120,
		},
		{
			name: "M1:=syrk(Aᵀ·A); tri2full(M1); X:=gemm(M1·B)",
			calls: []kernels.Call{
				kernels.NewSyrkT(80, 514, "A", "M1"),
				kernels.NewTri2Full(80, "M1"),
				kernels.NewGemm(80, 768, 80, "M1", "B", "X", false, false),
			},
			shapes: sh(sq), flops: 13_161_120,
		},
		{
			name: "M1:=gemm(Aᵀ·A); X:=symm(M1·B)",
			calls: []kernels.Call{
				kernels.NewGemm(80, 80, 514, "A", "A", "M1", true, false),
				kernels.NewSymm(80, 768, "M1", "B", "X"),
			},
			shapes: sh(sq), flops: 16_409_600,
		},
		{
			name: "M1:=gemm(Aᵀ·A); X:=gemm(M1·B)",
			calls: []kernels.Call{
				kernels.NewGemm(80, 80, 514, "A", "A", "M1", true, false),
				kernels.NewGemm(80, 768, 80, "M1", "B", "X", false, false),
			},
			shapes: sh(sq), flops: 16_409_600,
		},
		{
			name: "M1:=gemm(A·B); X:=gemm(Aᵀ·M1)",
			calls: []kernels.Call{
				kernels.NewGemm(514, 768, 80, "A", "B", "M1", false, false),
				kernels.NewGemm(80, 768, 514, "A", "M1", "X", true, false),
			},
			shapes: sh(rect), flops: 126_320_640,
		},
	}
	checkGolden(t, NewATAB().Algorithms(inst), want, []string{"A", "B"}, nil)
}

func TestGoldenLstSq(t *testing.T) {
	inst := Instance{120, 500, 80}
	shapes := map[string]Shape{
		"A": shp(120, 500), "B": shp(500, 80), "R": shp(120, 120),
		"S": shp(120, 120), "X": shp(120, 80),
	}
	gramSyrk := kernels.NewSyrk(120, 500, "A", "S")
	gramGemm := kernels.NewGemm(120, 120, 500, "A", "A", "S", false, true)
	add := kernels.NewAddSym(120, "S", "R")
	chol := kernels.NewPotrf(120, "S")
	rhs := kernels.NewGemm(120, 80, 500, "A", "B", "X", false, false)
	solve1 := kernels.NewTrsm(120, 80, "S", "X", false)
	solve2 := kernels.NewTrsm(120, 80, "S", "X", true)
	want := []golden{
		{
			name:   "S:=syrk(A·Aᵀ); S+=R; L:=potrf(S); X:=gemm(A·B); trsm(L); trsm(Lᵀ)",
			calls:  []kernels.Call{gramSyrk, add, chol, rhs, solve1, solve2},
			shapes: shapes, flops: 19_754_480,
		},
		{
			name:   "X:=gemm(A·B); S:=syrk(A·Aᵀ); S+=R; L:=potrf(S); trsm(L); trsm(Lᵀ)",
			calls:  []kernels.Call{rhs, gramSyrk, add, chol, solve1, solve2},
			shapes: shapes, flops: 19_754_480,
		},
		{
			name:   "S:=gemm(A·Aᵀ); S+=R; L:=potrf(S); X:=gemm(A·B); trsm(L); trsm(Lᵀ)",
			calls:  []kernels.Call{gramGemm, add, chol, rhs, solve1, solve2},
			shapes: shapes, flops: 26_894_480,
		},
		{
			name:   "X:=gemm(A·B); S:=gemm(A·Aᵀ); S+=R; L:=potrf(S); trsm(L); trsm(Lᵀ)",
			calls:  []kernels.Call{rhs, gramGemm, add, chol, solve1, solve2},
			shapes: shapes, flops: 26_894_480,
		},
	}
	checkGolden(t, NewLstSq().Algorithms(inst), want, []string{"A", "B", "R"}, []string{"R"})
}

// TestGoldenFlopsMatchPaperFigures ties the pinned absolute FLOP counts
// back to the paper's closed-form per-algorithm formulas (§3.2.1 and
// §3.2.2) at the golden instances, so the goldens cannot drift from the
// figures they reproduce.
func TestGoldenFlopsMatchPaperFigures(t *testing.T) {
	chainInst := Instance{331, 279, 338, 854, 427}
	for i, a := range NewChainABCD().Algorithms(chainInst) {
		if want := chainPaperFlops(chainInst)[i]; a.Flops() != want {
			t.Errorf("chain algorithm %d: flops %v, want paper %v", i+1, a.Flops(), want)
		}
	}
	aatbInst := Instance{80, 514, 768}
	for i, a := range NewAATB().Algorithms(aatbInst) {
		if want := aatbPaperFlops(aatbInst)[i]; a.Flops() != want {
			t.Errorf("aatb algorithm %d: flops %v, want paper %v", i+1, a.Flops(), want)
		}
	}
}

// chainDigests pins the n-term chain's algorithm set at a fixed
// instance (dᵢ = 2+i) as the SHA-256 of every algorithm's index, name
// and calls, one line each, for 2 to 8 terms.
var chainDigests = map[int]string{
	2: "aa5d57cf9225d195dc701c4971e550da29764c2a0200df8501aa31e974d8c9ae",
	3: "a88525f141e071321fa827e6a121f89e9acef21e5cd30dc165bbe6864647aa8d",
	4: "1797f05f06289fd7a5f08710e7f2f48677f42d016126ce8dfe112ac7b6fb3cf8",
	5: "367257156b631623c85fa420e781c710c9b38eb6a48b03ae0989b2de1c143b6d",
	6: "ace678bfefae89b9ab65dc2e322d76f1ef954d76a2f85ced2961565b7582c2a7",
	7: "6acdca73a4a3a441d442afef5763fc89062bb74518644f51e2def62c2cb3b149",
	8: "d2a99fd4f150c5a0ad0e6ffbc03da561bdabe0c99aeec9eb822202e366bdf140",
}

func TestGoldenChainDigests(t *testing.T) {
	for terms := 2; terms <= 8; terms++ {
		inst := make(Instance, terms+1)
		for i := range inst {
			inst[i] = 2 + i
		}
		h := sha256.New()
		for _, a := range mustChain(terms).Algorithms(inst) {
			fmt.Fprintf(h, "%d %s\n", a.Index, a.Name)
			for _, c := range a.Calls {
				fmt.Fprintf(h, "\t%s %d %d %d %t %t %q %q\n", c.Kind, c.M, c.N, c.K, c.TransA, c.TransB, c.In, c.Out)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != chainDigests[terms] {
			t.Errorf("chain-%d: set digest %s, want %s", terms, got, chainDigests[terms])
		}
	}
}
