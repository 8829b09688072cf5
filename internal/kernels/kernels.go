// Package kernels models the BLAS kernel invocations from which all
// algorithms in this repository are composed.
//
// The paper (§3.1) builds every algorithm from three level-3 BLAS kernels
// — GEMM, SYRK, and SYMM — plus one data-movement step (copying a
// triangle computed by SYRK to the opposite triangle so a subsequent GEMM
// can consume a full matrix). A Call records the kernel kind, its problem
// dimensions, and the logical operands it reads and writes; the FLOP
// counts attached to each kind are exactly the ones the paper uses as the
// selection discriminant.
package kernels

import "fmt"

// Kind identifies a kernel.
type Kind int

const (
	// Gemm computes C := A·B with A (M×K) and B (K×N), costing 2MNK FLOPs.
	Gemm Kind = iota
	// Syrk computes one triangle of C := A·Aᵀ with A (M×K) — or of
	// C := Aᵀ·A with A (K×M) when TransA is set — costing (M+1)·M·K
	// FLOPs either way.
	Syrk
	// Symm computes C := A·B with A (M×M) symmetric and B (M×N), costing
	// 2M²N FLOPs.
	Symm
	// Tri2Full mirrors one triangle of an M×M matrix onto the other; it
	// performs no floating-point operations but moves memory. It is the
	// copy step of the paper's AAᵀB Algorithm 2.
	Tri2Full
	// Potrf computes the Cholesky factorisation L·Lᵀ of an M×M symmetric
	// positive definite matrix in place, costing M(M+1)(2M+1)/6 ≈ M³/3
	// FLOPs. Used by the
	// least-squares expression that extends the paper's study to a
	// LAPACK-level kernel mix (the paper's "more complex expressions"
	// conjecture).
	Potrf
	// Trsm solves op(L)·X = B in place with L triangular M×M and B M×N,
	// costing M²·N FLOPs.
	Trsm
	// AddSym adds one triangle of an M×M matrix onto another in place
	// (S := S + R), costing M(M+1)/2 FLOPs.
	AddSym
	numKinds = iota
)

// NumKinds is the number of kernel kinds.
const NumKinds = int(numKinds)

// String returns the lowercase BLAS-style kernel name.
func (kind Kind) String() string {
	if kind < 0 || int(kind) >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(kind))
	}
	return specs[kind].name
}

// Canonical returns the kind's call of shape m×n×k over fixed operand
// IDs, with the dimensions the kind constrains normalised (SYRK and the
// square kinds: N=M; SYMM: K=M). Kernel profiles and Figure 1 benchmark
// these calls. It panics on an unknown kind.
func (kind Kind) Canonical(m, n, k int) Call { return kind.spec().canonical(m, n, k) }

// ParseKind maps the lowercase BLAS-style kernel name back to its Kind —
// the inverse of String for every valid kind, used when deserialising
// persisted kernel profiles.
func ParseKind(name string) (Kind, error) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("kernels: unknown kernel name %q", name)
}

// Call describes one kernel invocation: the kernel kind, the problem
// dimensions, transposition flags, and the logical operands involved.
//
// Dimension conventions per kind (all operands are float64, column-major;
// each kind's formulas and checks are its row of the table in table.go):
//
//	Gemm:     C (M×N) := op(A) (M×K) · op(B) (K×N)
//	Syrk:     C (M×M) := A·Aᵀ with A (M×K); K is the inner dimension; N=M
//	          (TransA: C := Aᵀ·A with A (K×M))
//	Symm:     C (M×N) := A·B with A (M×M) symmetric; K=M
//	Tri2Full: C (M×M) triangle mirror in place; N=M, K=0
//	Potrf:    S (M×M) := L with L·Lᵀ = S, in place; N=M, K=0
//	Trsm:     B (M×N) := op(L)⁻¹·B with L (M×M) lower triangular, in
//	          place; K=0 (TransA: op(L) = Lᵀ)
//	AddSym:   C (M×M) := C + A on one triangle, in place; N=M, K=0
type Call struct {
	Kind Kind
	// M, N, K are the problem dimensions in the conventions above.
	M, N, K int
	// TransA and TransB request transposed reads of the inputs (only
	// meaningful for Gemm; the dimensions M, N, K always refer to the
	// logical, post-transposition product).
	TransA, TransB bool
	// In lists the IDs of the logical operands read by the call, in
	// argument order (e.g. ["A", "B"] for C := A·B). An in-place kind
	// lists the operand it overwrites too: Tri2Full and Potrf read only
	// that operand, Trsm reads [L, B] and AddSym [C, A].
	In []string
	// Out is the ID of the operand written by the call.
	Out string
}

// NewGemm returns a GEMM call C := op(A)·op(B), where the product is
// m×n with inner dimension k.
func NewGemm(m, n, k int, a, b, c string, transA, transB bool) Call {
	return Call{Kind: Gemm, M: m, N: n, K: k, TransA: transA, TransB: transB, In: []string{a, b}, Out: c}
}

// NewSyrk returns a SYRK call C := A·Aᵀ with A m×k, producing one
// triangle of the m×m result.
func NewSyrk(m, k int, a, c string) Call {
	return Call{Kind: Syrk, M: m, N: m, K: k, In: []string{a}, Out: c}
}

// NewSyrkT returns the transposed SYRK call C := Aᵀ·A with A k×m (BLAS
// dsyrk with trans='T'), producing one triangle of the m×m result. Same
// FLOP count as NewSyrk; TransA records the transposed read.
func NewSyrkT(m, k int, a, c string) Call {
	return Call{Kind: Syrk, M: m, N: m, K: k, TransA: true, In: []string{a}, Out: c}
}

// NewSymm returns a SYMM call C := A·B with A m×m symmetric, B m×n.
func NewSymm(m, n int, a, b, c string) Call {
	return Call{Kind: Symm, M: m, N: n, K: m, In: []string{a, b}, Out: c}
}

// NewTri2Full returns a triangle-mirroring call on the m×m operand c.
func NewTri2Full(m int, c string) Call {
	return Call{Kind: Tri2Full, M: m, N: m, In: []string{c}, Out: c}
}

// NewPotrf returns an in-place Cholesky factorisation of the m×m SPD
// operand s.
func NewPotrf(m int, s string) Call {
	return Call{Kind: Potrf, M: m, N: m, In: []string{s}, Out: s}
}

// NewTrsm returns an in-place triangular solve op(L)·X = B with L m×m
// and B m×n; trans selects Lᵀ.
func NewTrsm(m, n int, l, b string, trans bool) Call {
	return Call{Kind: Trsm, M: m, N: n, TransA: trans, In: []string{l, b}, Out: b}
}

// NewAddSym returns the in-place triangular accumulation c := c + a for
// m×m symmetric operands.
func NewAddSym(m int, c, a string) Call {
	return Call{Kind: AddSym, M: m, N: m, In: []string{c, a}, Out: c}
}

// Flops returns the FLOP count the paper attributes to the call (§3.1).
// Tri2Full performs zero floating-point operations; this is precisely why
// the paper's Algorithms 1 and 2 for AAᵀB share a FLOP count while
// differing in execution time.
func (c Call) Flops() float64 {
	return c.Kind.spec().flops(float64(c.M), float64(c.N), float64(c.K))
}

// Bytes returns an estimate of the call's cold-cache memory traffic in
// bytes: each input operand read once and the output read and written
// once (8 bytes per float64). Triangular operands count half. This feeds
// the simulated machine's inter-kernel cache model and the arithmetic-
// intensity estimate; it is not meant to model blocked re-reads.
func (c Call) Bytes() float64 {
	return c.Kind.spec().bytes(float64(c.M), float64(c.N), float64(c.K))
}

// Touches returns the bytes the simulated cache model counts for the
// call: in[i] for input In[i] (zero past the kind's input count) and out
// for the output. Triangular accesses count half the square.
func (c Call) Touches() (in [2]float64, out float64) {
	return c.Kind.spec().touches(float64(c.M), float64(c.N), float64(c.K))
}

// Intensity returns the call's arithmetic intensity in FLOPs per byte of
// cold traffic. Tri2Full has intensity zero.
func (c Call) Intensity() float64 {
	b := c.Bytes()
	if b == 0 {
		return 0
	}
	return c.Flops() / b
}

// String renders the call compactly, e.g. "gemm(m=10,n=20,k=30)".
func (c Call) String() string {
	s := fmt.Sprintf("%v(m=%d,n=%d,k=%d", c.Kind, c.M, c.N, c.K)
	if c.TransA {
		s += ",Aᵀ"
	}
	if c.TransB {
		s += ",Bᵀ"
	}
	return s + ")"
}

// FillKind says how an executor must materialise an operand before a
// call can run on it in isolation. Operand *contents* never influence
// BLAS timing (dense unstructured inputs), but structural requirements
// do: an in-place Cholesky needs an SPD operand, a triangular solve
// needs a non-singular factor.
type FillKind int

const (
	// FillZero marks a temporary: its contents are produced by the
	// algorithm, so a zeroed buffer suffices.
	FillZero FillKind = iota
	// FillRandom marks a dense unstructured operand.
	FillRandom
	// FillSPD marks an operand that must be symmetric positive definite
	// (it is consumed by an in-place Cholesky factorisation).
	FillSPD
	// FillDiagDominant marks a triangular-factor operand: random with a
	// boosted diagonal, so forward/backward substitution is stable.
	FillDiagDominant
)

// String returns the fill kind's name.
func (f FillKind) String() string {
	switch f {
	case FillZero:
		return "zero"
	case FillRandom:
		return "random"
	case FillSPD:
		return "spd"
	case FillDiagDominant:
		return "diagdominant"
	default:
		return fmt.Sprintf("FillKind(%d)", int(f))
	}
}

// OperandSpec describes one distinct operand slot of a call: its ID, its
// stored shape, how it must be materialised for an isolated run, and
// whether the call writes it. This is the call→plan metadata the
// execution-plan compiler (lamb/internal/exec) uses to size arena slots
// and bind kernel arguments without per-kind switches.
type OperandSpec struct {
	ID         string
	Rows, Cols int
	Fill       FillKind
	Written    bool
}

// Operands returns the call's distinct operands in argument order
// (inputs first, then the output unless it aliases an input). In-place
// calls (POTRF, TRSM, AddSym, Tri2Full) report the aliased operand once,
// with Written set.
func (c Call) Operands() []OperandSpec { return c.Kind.spec().operands(c) }

// Key returns a comparable identity for benchmark memoisation: two calls
// with equal keys have identical performance characteristics (same kind,
// dimensions, and transposition pattern), regardless of operand IDs.
type Key struct {
	Kind           Kind
	M, N, K        int
	TransA, TransB bool
}

// MemoKey returns the call's memoisation key.
func (c Call) MemoKey() Key {
	return Key{Kind: c.Kind, M: c.M, N: c.N, K: c.K, TransA: c.TransA, TransB: c.TransB}
}

// Validate checks that the call's dimensions are positive and consistent
// with its kind.
func (c Call) Validate() error {
	if c.Kind < 0 || int(c.Kind) >= NumKinds {
		return fmt.Errorf("kernels: unknown kind %d", int(c.Kind))
	}
	s := &specs[c.Kind]
	if err := s.dims(s.name, c); err != nil {
		return err
	}
	if s.inPlace != "" {
		if len(c.In) != s.ins || c.In[s.alias] != c.Out {
			return fmt.Errorf("kernels: %s must %s in place, got %s", s.name, s.inPlace, c)
		}
	} else if len(c.In) != s.ins {
		inputs := "inputs"
		if s.ins == 1 {
			inputs = "input"
		}
		return fmt.Errorf("kernels: %s needs %d %s, has %d", s.name, s.ins, inputs, len(c.In))
	}
	if c.Out == "" {
		return fmt.Errorf("kernels: call %s has no output operand", c)
	}
	return nil
}
