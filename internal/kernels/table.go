package kernels

import "fmt"

// spec is one kernel kind's row of the kernel table: everything this
// package knows about the kind. Kind.String, Kind.Canonical and Call's
// Flops, Bytes, Operands, Touches and Validate are lookups into it, so a
// new kind is one new row.
type spec struct {
	name string
	// ins is the number of inputs a call reads. An in-place kind writes
	// its output over input alias; inPlace names that operation in
	// Validate's error text and is "" for an out-of-place kind.
	ins     int
	inPlace string
	alias   int
	// flops is the paper's FLOP count (§3.1) and bytes the cold-cache
	// traffic estimate of a call with dimensions m, n, k.
	flops, bytes func(m, n, k float64) float64
	// touches gives the bytes the simulated cache model counts for each
	// input, in In order, and for the output.
	touches func(m, n, k float64) (in [2]float64, out float64)
	// operands lists the call's distinct operand slots (see Operands).
	operands func(c Call) []OperandSpec
	// dims checks the kind's dimension constraints.
	dims func(name string, c Call) error
	// canonical builds the kind's call of shape m×n×k over fixed operand
	// IDs, normalising the dimensions the kind constrains.
	canonical func(m, n, k int) Call
}

// w is the size of one float64 in bytes.
const w = 8.0

var specs = [NumKinds]spec{
	Gemm: {
		name: "gemm", ins: 2,
		flops: func(m, n, k float64) float64 { return 2 * m * n * k },
		bytes: func(m, n, k float64) float64 { return w * (m*k + k*n + 2*m*n) },
		touches: func(m, n, k float64) ([2]float64, float64) {
			return [2]float64{w * m * k, w * k * n}, w * m * n
		},
		operands: func(c Call) []OperandSpec {
			ar, ac := c.M, c.K
			if c.TransA {
				ar, ac = c.K, c.M
			}
			br, bc := c.K, c.N
			if c.TransB {
				br, bc = c.N, c.K
			}
			return []OperandSpec{
				{ID: c.In[0], Rows: ar, Cols: ac, Fill: FillRandom},
				{ID: c.In[1], Rows: br, Cols: bc, Fill: FillRandom},
				{ID: c.Out, Rows: c.M, Cols: c.N, Fill: FillRandom, Written: true},
			}
		},
		dims:      func(name string, c Call) error { return positive(name, c, c.M, c.N, c.K) },
		canonical: func(m, n, k int) Call { return NewGemm(m, n, k, "A", "B", "C", false, false) },
	},
	Syrk: {
		name: "syrk", ins: 1,
		flops: func(m, n, k float64) float64 { return (m + 1) * m * k },
		// Read A (m×k), read+write one triangle of C.
		bytes: func(m, n, k float64) float64 { return w * (m*k + m*(m+1)) },
		touches: func(m, n, k float64) ([2]float64, float64) {
			return [2]float64{w * m * k}, w * m * (m + 1) / 2
		},
		operands: func(c Call) []OperandSpec {
			ar, ac := c.M, c.K
			if c.TransA {
				ar, ac = c.K, c.M
			}
			return []OperandSpec{
				{ID: c.In[0], Rows: ar, Cols: ac, Fill: FillRandom},
				{ID: c.Out, Rows: c.M, Cols: c.M, Fill: FillRandom, Written: true},
			}
		},
		dims: func(name string, c Call) error {
			if err := positive(name, c, c.M, c.K); err != nil {
				return err
			}
			if c.N != c.M {
				return fmt.Errorf("kernels: %s with N %d != M %d", name, c.N, c.M)
			}
			return nil
		},
		canonical: func(m, n, k int) Call { return NewSyrk(m, k, "A", "C") },
	},
	Symm: {
		name: "symm", ins: 2,
		flops: func(m, n, k float64) float64 { return 2 * m * m * n },
		// Read one triangle of A, read B, read+write C.
		bytes: func(m, n, k float64) float64 { return w * (m*(m+1)/2 + m*n + 2*m*n) },
		touches: func(m, n, k float64) ([2]float64, float64) {
			return [2]float64{w * m * (m + 1) / 2, w * m * n}, w * m * n
		},
		operands: func(c Call) []OperandSpec {
			return []OperandSpec{
				{ID: c.In[0], Rows: c.M, Cols: c.M, Fill: FillRandom},
				{ID: c.In[1], Rows: c.M, Cols: c.N, Fill: FillRandom},
				{ID: c.Out, Rows: c.M, Cols: c.N, Fill: FillRandom, Written: true},
			}
		},
		dims: func(name string, c Call) error {
			if err := positive(name, c, c.M, c.N); err != nil {
				return err
			}
			if c.K != c.M {
				return fmt.Errorf("kernels: %s with K %d != M %d", name, c.K, c.M)
			}
			return nil
		},
		canonical: func(m, n, k int) Call { return NewSymm(m, n, "A", "B", "C") },
	},
	Tri2Full: {
		name: "tri2full", ins: 1, inPlace: "mirror", alias: 0,
		flops: func(m, n, k float64) float64 { return 0 },
		// Read one strict triangle, write the other.
		bytes: func(m, n, k float64) float64 { return w * (m * (m - 1)) },
		touches: func(m, n, k float64) ([2]float64, float64) {
			return [2]float64{w * m * m / 2}, w * m * m
		},
		operands: func(c Call) []OperandSpec {
			return []OperandSpec{
				{ID: c.Out, Rows: c.M, Cols: c.M, Fill: FillRandom, Written: true},
			}
		},
		dims:      square,
		canonical: func(m, n, k int) Call { return NewTri2Full(m, "C") },
	},
	Potrf: {
		name: "potrf", ins: 1, inPlace: "factor", alias: 0,
		// Exact Cholesky count n³/3 + n²/2 + n/6 = n(n+1)(2n+1)/6: an
		// integer, so FLOP ties between algorithms that share the
		// factorisation stay exact under floating-point summation.
		flops: func(m, n, k float64) float64 { return m * (m + 1) * (2*m + 1) / 6 },
		// Read and write one triangle in place.
		bytes: func(m, n, k float64) float64 { return w * (m * (m + 1)) },
		touches: func(m, n, k float64) ([2]float64, float64) {
			return [2]float64{w * m * (m + 1) / 2}, w * m * (m + 1) / 2
		},
		operands: func(c Call) []OperandSpec {
			return []OperandSpec{
				{ID: c.Out, Rows: c.M, Cols: c.M, Fill: FillSPD, Written: true},
			}
		},
		dims:      square,
		canonical: func(m, n, k int) Call { return NewPotrf(m, "S") },
	},
	Trsm: {
		name: "trsm", ins: 2, inPlace: "solve", alias: 1,
		flops: func(m, n, k float64) float64 { return m * m * n },
		// Read the triangle of L, read and write B.
		bytes: func(m, n, k float64) float64 { return w * (m*(m+1)/2 + 2*m*n) },
		touches: func(m, n, k float64) ([2]float64, float64) {
			return [2]float64{w * m * (m + 1) / 2, w * m * n}, w * m * n
		},
		operands: func(c Call) []OperandSpec {
			return []OperandSpec{
				{ID: c.In[0], Rows: c.M, Cols: c.M, Fill: FillDiagDominant},
				{ID: c.Out, Rows: c.M, Cols: c.N, Fill: FillRandom, Written: true},
			}
		},
		dims:      func(name string, c Call) error { return positive(name, c, c.M, c.N) },
		canonical: func(m, n, k int) Call { return NewTrsm(m, n, "L", "B", false) },
	},
	AddSym: {
		name: "addsym", ins: 2, inPlace: "accumulate", alias: 0,
		flops: func(m, n, k float64) float64 { return m * (m + 1) / 2 },
		// Read both triangles, write one.
		bytes: func(m, n, k float64) float64 { return w * (1.5 * m * (m + 1)) },
		touches: func(m, n, k float64) ([2]float64, float64) {
			return [2]float64{w * m * (m + 1) / 2, w * m * (m + 1) / 2}, w * m * (m + 1) / 2
		},
		operands: func(c Call) []OperandSpec {
			return []OperandSpec{
				{ID: c.Out, Rows: c.M, Cols: c.M, Fill: FillRandom, Written: true},
				{ID: c.In[1], Rows: c.M, Cols: c.M, Fill: FillRandom},
			}
		},
		dims:      square,
		canonical: func(m, n, k int) Call { return NewAddSym(m, "C", "A") },
	},
}

// positive rejects a call whose listed dimensions are not all positive.
func positive(name string, c Call, dims ...int) error {
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("kernels: %s with non-positive dims %s", name, c)
		}
	}
	return nil
}

// square rejects a call that is not M×M with M positive.
func square(name string, c Call) error {
	if c.M <= 0 || c.N != c.M {
		return fmt.Errorf("kernels: %s with bad dims %s", name, c)
	}
	return nil
}

// spec returns the kind's row of the kernel table. It panics on a kind
// outside the table.
func (kind Kind) spec() *spec {
	if kind < 0 || int(kind) >= NumKinds {
		panic(fmt.Sprintf("kernels: unknown kind %d", int(kind)))
	}
	return &specs[kind]
}
