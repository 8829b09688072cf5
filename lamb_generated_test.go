package lamb_test

import (
	"math"
	"reflect"
	"testing"

	"lamb"
)

// End-to-end coverage for the enumerator-generated expressions (aatbc,
// gls): the full experiment pipeline and strategy evaluation on the
// simulated backend, numerical agreement of every generated algorithm
// on the real BLAS, and the public IR builder API.

func generatedExpressions() []lamb.Expression {
	return []lamb.Expression{lamb.AATBC(), lamb.GLS(), lamb.ATAB()}
}

func TestGeneratedExpressionsExperimentPipeline(t *testing.T) {
	timer := lamb.NewSimTimer()
	for _, e := range generatedExpressions() {
		t.Run(e.Name(), func(t *testing.T) {
			r10 := lamb.NewRunner(e, timer, 0.10)
			exp1 := lamb.RunExperiment1(r10, lamb.Exp1Config{
				Box:             lamb.PaperBox(e.Arity()),
				TargetAnomalies: 3,
				MaxSamples:      2500,
				Seed:            7,
			}, 1)
			if len(exp1.Anomalies) < 1 {
				t.Fatalf("%s: no anomalies in %d samples", e.Name(), exp1.Samples)
			}
			n := len(exp1.Anomalies)
			if n > 2 {
				n = 2
			}
			origins := make([]lamb.Instance, 0, n)
			for _, a := range exp1.Anomalies[:n] {
				origins = append(origins, a.Inst)
			}
			r5 := lamb.NewRunner(e, timer, 0.05)
			exp2 := lamb.RunExperiment2(r5, origins, lamb.DefaultExp2Config(lamb.PaperBox(e.Arity())), 1)
			if len(exp2.Lines) != n*e.Arity() {
				t.Fatalf("%s: exp2 produced %d lines, want %d", e.Name(), len(exp2.Lines), n*e.Arity())
			}
			exp3 := lamb.RunExperiment3(r5, exp2, lamb.Exp3Config{Threshold: 0.05}, 1)
			if exp3.Confusion.Total() != exp2.TotalSamples {
				t.Fatalf("%s: exp3 total %d != exp2 samples %d", e.Name(), exp3.Confusion.Total(), exp2.TotalSamples)
			}
			if exp3.DistinctCalls == 0 {
				t.Fatalf("%s: exp3 benchmarked no calls", e.Name())
			}
		})
	}
}

func TestGeneratedExpressionsStrategyEvaluation(t *testing.T) {
	timer := lamb.NewSimTimer()
	profiles := lamb.MeasureProfiles(timer, 3)
	for _, e := range generatedExpressions() {
		reports := lamb.EvaluateStrategies(e, timer,
			[]lamb.Strategy{lamb.MinFlops{}, lamb.MinPredicted{Profiles: profiles}},
			lamb.SelectionConfig{Box: lamb.UniformBox(e.Arity(), 50, 600), Instances: 12, Seed: 5})
		if len(reports) != 2 {
			t.Fatalf("%s: %d reports", e.Name(), len(reports))
		}
		for _, r := range reports {
			if r.Instances != 12 {
				t.Fatalf("%s %s: %d instances", e.Name(), r.Strategy, r.Instances)
			}
			if r.Regret.Max < 0 {
				t.Fatalf("%s %s: negative regret", e.Name(), r.Strategy)
			}
		}
	}
}

// spdMatrix returns a deterministic diagonally dominant symmetric
// matrix — SPD by Gershgorin.
func spdMatrix(n int, seed uint64) *lamb.Matrix {
	m := lamb.NewRandomMatrix(n, n, seed)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
		m.Set(i, i, float64(n)+1+m.At(i, i))
	}
	return m
}

func TestGeneratedAlgorithmsAgreeNumerically(t *testing.T) {
	// A builder-defined expression whose Gram sum feeds a full-storage
	// GEMM — regression coverage for the Tri2Full insertion after the
	// triangle-only AddSym accumulation.
	a := lamb.Operand("A", 0, 1)
	sumGemm, err := lamb.DefineExpression("sum-gemm", 3,
		lamb.MulFixed(
			lamb.AddInto("S", lamb.Mul(a, lamb.Transpose(a)), lamb.SPDOperand("R", 0)),
			lamb.Operand("B", 0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		expr   lamb.Expression
		inst   lamb.Instance
		inputs map[string]*lamb.Matrix
	}{
		{sumGemm, lamb.Instance{9, 7, 8}, map[string]*lamb.Matrix{
			"A": lamb.NewRandomMatrix(9, 7, 8),
			"B": lamb.NewRandomMatrix(9, 8, 9),
			"R": spdMatrix(9, 10),
		}},
		{lamb.AATBC(), lamb.Instance{11, 7, 9, 8}, map[string]*lamb.Matrix{
			"A": lamb.NewRandomMatrix(11, 7, 1),
			"B": lamb.NewRandomMatrix(11, 9, 2),
			"C": lamb.NewRandomMatrix(9, 8, 3),
		}},
		{lamb.GLS(), lamb.Instance{10, 8, 7, 6}, map[string]*lamb.Matrix{
			"A": lamb.NewRandomMatrix(10, 8, 4),
			"B": lamb.NewRandomMatrix(8, 7, 5),
			"C": lamb.NewRandomMatrix(7, 6, 6),
			"R": spdMatrix(10, 7),
		}},
		// ATAB: all five algorithms — transposed SYRK, its Tri2Full+GEMM
		// variant, the GEMM Gram, and the chain order — agree.
		{lamb.ATAB(), lamb.Instance{13, 9, 8}, map[string]*lamb.Matrix{
			"A": lamb.NewRandomMatrix(13, 9, 11),
			"B": lamb.NewRandomMatrix(9, 8, 12),
		}},
	}
	for _, c := range cases {
		algs := c.expr.Algorithms(c.inst)
		var ref *lamb.Matrix
		for i := range algs {
			// The solves run in place on operands the algorithm owns, but
			// inputs are shared across algorithms: hand each run fresh
			// copies of anything an in-place kernel touches.
			inputs := make(map[string]*lamb.Matrix, len(c.inputs))
			for id, m := range c.inputs {
				cp := lamb.NewMatrix(m.Rows, m.Cols)
				for r := 0; r < m.Rows; r++ {
					for cc := 0; cc < m.Cols; cc++ {
						cp.Set(r, cc, m.At(r, cc))
					}
				}
				inputs[id] = cp
			}
			got := lamb.EvaluateAlgorithm(&algs[i], inputs)
			if ref == nil {
				ref = got
				continue
			}
			for r := 0; r < ref.Rows; r++ {
				for cc := 0; cc < ref.Cols; cc++ {
					if math.Abs(ref.At(r, cc)-got.At(r, cc)) > 1e-8 {
						t.Fatalf("%s algorithm %d differs at (%d,%d): %v vs %v",
							c.expr.Name(), i+1, r, cc, ref.At(r, cc), got.At(r, cc))
					}
				}
			}
		}
	}
}

func TestPublicBuilderAPIReproducesAATB(t *testing.T) {
	// Defining AAᵀB through the public IR builder generates the same
	// five algorithms as the built-in expression (up to the name).
	a := lamb.Operand("A", 0, 1)
	b := lamb.Operand("B", 0, 2)
	custom, err := lamb.DefineExpression("my-aatb", 3, lamb.Mul(a, lamb.Transpose(a), b))
	if err != nil {
		t.Fatal(err)
	}
	inst := lamb.Instance{80, 514, 768}
	got := custom.Algorithms(inst)
	want := lamb.AATB().Algorithms(inst)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("builder-defined AAᵀB differs from built-in:\n got %v\nwant %v", got, want)
	}
}

func TestPublicBuilderAPISolveAndSum(t *testing.T) {
	// A custom GLS-like definition through the public facade.
	a := lamb.Operand("A", 0, 1)
	b := lamb.Operand("B", 1, 2)
	r := lamb.SPDOperand("R", 0)
	root := lamb.SolveWith(
		lamb.AddInto("S", lamb.Mul(a, lamb.Transpose(a)), r),
		lamb.Mul(a, b),
	)
	custom, err := lamb.DefineExpression("my-lstsq", 3, root)
	if err != nil {
		t.Fatal(err)
	}
	if n := custom.NumAlgorithms(); n != 4 {
		t.Fatalf("custom lstsq generated %d algorithms, want 4", n)
	}
	// Unsupported fragments fail at definition time, not mid-experiment.
	if _, err := lamb.DefineExpression("bad", 2,
		lamb.Mul(lamb.Operand("A", 0, 1), lamb.Operand("B", 0, 1))); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestPublicRegistry(t *testing.T) {
	names := lamb.Expressions()
	if len(names) != 6 {
		t.Fatalf("registry %v", names)
	}
	for _, n := range names {
		e, err := lamb.LookupExpression(n)
		if err != nil {
			t.Fatal(err)
		}
		if e.Arity() < 3 {
			t.Fatalf("%s arity %d", n, e.Arity())
		}
	}
	if _, err := lamb.LookupExpression("unknown"); err == nil {
		t.Fatal("unknown expression accepted")
	}
}
