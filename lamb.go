// Package lamb reproduces the study "FLOPs as a Discriminant for Dense
// Linear Algebra Algorithms" (López, Karlsson, Bientinesi; ICPP 2022).
//
// The library answers the paper's question — when does selecting the
// algorithm with the minimum FLOP count fail to select a fastest
// algorithm? — by providing:
//
//   - an expression IR with a generic enumerator that derives the full
//     set of mathematically equivalent algorithms for any operand tree
//     (multiplication orders, SYRK/SYMM symmetry rewrites, SPD-inverse
//     lowering, common-subexpression sharing), powering the two
//     expressions the paper studies (the matrix chain ABCD and AAᵀB), a
//     general n-term chain, and three richer expressions (lstsq, aatbc,
//     gls) probing the paper's §5 conjecture;
//   - two execution backends: a deterministic simulated machine
//     calibrated to the paper's observations, and a measured backend
//     running a from-scratch pure-Go BLAS;
//   - the three experiments: random search for anomalies, axis-aligned
//     traversal of anomalous regions, and anomaly prediction from
//     isolated kernel benchmarks;
//   - kernel performance profiles and algorithm-selection strategies,
//     including the paper's proposed FLOPs+profiles discriminant.
//
// See README.md for a tour and DESIGN.md for the system inventory.
//
// # Quick start
//
//	timer := lamb.NewSimTimer()
//	runner := lamb.NewRunner(lamb.ChainABCD(), timer, 0.10)
//	res := runner.Evaluate(lamb.Instance{331, 279, 338, 854, 427})
//	fmt.Println(res.Class.Anomaly, res.Class.TimeScore)
package lamb

import (
	"lamb/internal/core"
	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/ir"
	"lamb/internal/machine"
	"lamb/internal/mat"
	"lamb/internal/profile"
	"lamb/internal/selection"
	"lamb/internal/stats"
	"lamb/internal/xrand"
)

// Core modelling types.
type (
	// Instance assigns sizes to an expression's dimensions.
	Instance = expr.Instance
	// Algorithm is a sequence of kernel calls evaluating an expression.
	Algorithm = expr.Algorithm
	// Expression is a family of instances with its algorithm set.
	Expression = expr.Expression
	// Box is a hyper-rectangular instance search space.
	Box = expr.Box
	// Matrix is a dense column-major float64 matrix.
	Matrix = mat.Dense
)

// Execution and timing.
type (
	// Executor runs algorithms and reports times (simulated or measured).
	Executor = exec.Executor
	// Timer applies the paper's median-of-repetitions protocol.
	Timer = exec.Timer
	// Measurement is a timed algorithm run.
	Measurement = exec.Measurement
	// MachineConfig configures the simulated machine.
	MachineConfig = machine.Config
)

// The anomaly study.
type (
	// Runner evaluates and classifies instances.
	Runner = core.Runner
	// Classification is the paper's cheapest/fastest labelling with
	// severity scores.
	Classification = core.Classification
	// InstanceResult is a fully measured instance.
	InstanceResult = core.InstanceResult
	// Exp1Config / Exp1Result: random search (paper §3.4.1).
	Exp1Config = core.Exp1Config
	Exp1Result = core.Exp1Result
	// Exp2Config / Exp2Result / Line: region traversal (paper §3.4.2).
	Exp2Config = core.Exp2Config
	Exp2Result = core.Exp2Result
	Line       = core.Line
	// Exp3Config / Exp3Result: prediction from benchmarks (paper §3.4.3).
	Exp3Config = core.Exp3Config
	Exp3Result = core.Exp3Result
	// ConfusionMatrix tallies predicted-vs-actual anomalies.
	ConfusionMatrix = stats.ConfusionMatrix
)

// Profiles and selection.
type (
	// Profile is a benchmarked kernel performance surface.
	Profile = profile.Profile
	// ProfileSet covers all kernel kinds.
	ProfileSet = profile.Set
	// ProfileMeta records a profile set's provenance (machine, backend,
	// measurement protocol); persisted alongside the profiles.
	ProfileMeta = profile.Meta
	// CurvePoint is one sample of a Figure-1 efficiency curve.
	CurvePoint = profile.CurvePoint
	// Strategy selects an algorithm from a set.
	Strategy = selection.Strategy
	// Observation is one aggregated measured outcome an Adaptive
	// strategy folds into its choice.
	Observation = selection.Observation
	// SelectionReport summarises a strategy's regret.
	SelectionReport = selection.Report
	// SelectionConfig parameterises strategy evaluation.
	SelectionConfig = selection.Config
)

// ProfileSchemaVersion is the version of the persisted profile file
// format this build reads and writes.
const ProfileSchemaVersion = profile.SchemaVersion

// Selection strategies.
type (
	// MinFlops is the paper's baseline discriminant (Linnea, Armadillo,
	// Julia): minimum FLOP count.
	MinFlops = selection.MinFlops
	// MinPredicted combines FLOP counts with kernel performance profiles
	// (the paper's proposed improvement).
	MinPredicted = selection.MinPredicted
	// Adaptive refines the profile-backed prediction online with
	// measured outcomes near the queried instance (the follow-up paper's
	// online-decision framing, arXiv:2209.03258).
	Adaptive = selection.Adaptive
	// Oracle picks the empirically fastest algorithm by measuring all.
	Oracle = selection.Oracle
)

// ChainABCD returns the paper's 4-term matrix chain expression with its
// six algorithms (Figure 3).
func ChainABCD() GenericExpression { return expr.NewChainABCD() }

// NewChain returns the n-term matrix chain expression with its (n−1)!
// algorithms. It accepts 2 to 9 terms; a longer chain's set exceeds the
// enumerator's limit and returns ErrTooManyAlgorithms.
func NewChain(terms int) (GenericExpression, error) { return expr.NewChain(terms) }

// ErrTooManyAlgorithms is returned, wrapped, for an expression whose
// algorithm set would exceed the enumerator's limit of
// ir.MaxAlgorithms; test for it with errors.Is.
var ErrTooManyAlgorithms = ir.ErrTooManyAlgorithms

// AATB returns the expression X := A·Aᵀ·B with its five algorithms
// (Figure 5).
func AATB() GenericExpression { return expr.NewAATB() }

// ATAB returns the transposed-Gram expression X := Aᵀ·A·B, the mirror
// of AAᵀB enabled by the transposed-SYRK rewrite (Aᵀ·A → dsyrk
// trans='T'); its five generated algorithms mirror the paper's Figure 5
// in the normal-equations orientation.
func ATAB() GenericExpression { return expr.NewATAB() }

// LstSq returns the regularised least-squares expression
// X := (A·Aᵀ + R)⁻¹·A·B with its four algorithms over six kernel kinds
// (SYRK/GEMM Gram variants × RHS-ordering variants, with a triangular
// accumulation, a Cholesky factorisation, and two triangular solves).
// This extends the paper's study to a LAPACK-level kernel mix, testing
// its §5 conjecture that richer expressions produce more anomalies.
func LstSq() GenericExpression { return expr.NewLstSq() }

// AATBC returns the Gram-chain hybrid X := A·Aᵀ·B·C, the smallest
// expression combining the paper's two case studies; its fifteen
// algorithms are derived entirely by the IR enumerator (contraction
// orders × SYRK/GEMM × SYMM/GEMM with Tri2Full insertion).
func AATBC() GenericExpression { return expr.NewAATBC() }

// GLS returns the generalized-least-squares-style solve with a chained
// right-hand side, X := (A·Aᵀ + R)⁻¹·A·B·C, whose eight generated
// algorithms multiply Gram-kernel, parenthesisation, and
// pipeline-ordering choices over six kernel kinds.
func GLS() GenericExpression { return expr.NewGLS() }

// Expressions returns the names of the registered built-in expressions.
func Expressions() []string { return expr.Names() }

// LookupExpression returns the built-in expression registered under
// name (case-insensitive): chain, aatb, atab, lstsq, aatbc, or gls.
func LookupExpression(name string) (Expression, error) { return expr.Lookup(name) }

// Expression IR: the builder API for defining new expressions. A tree
// of operands, products, sums, and inverses is wrapped by
// DefineExpression into an Expression whose algorithm set is derived by
// the generic enumerator — all multiplication orders, SYRK/SYMM
// symmetry rewrites with Tri2Full insertion, Cholesky-based SPD-inverse
// lowering with both pipeline orderings, and common-subexpression
// sharing. See DESIGN.md for the architecture and README.md for a tour.
type (
	// IRNode is one vertex of an expression tree.
	IRNode = ir.Node
	// IRDef is a complete expression definition (tree plus metadata).
	IRDef = ir.Def
	// GenericExpression is an Expression generated from an IR definition.
	GenericExpression = expr.Generic
)

// Operand returns a general dense input named id with shape
// d[row] × d[col].
func Operand(id string, row, col int) IRNode { return ir.NewOperand(id, ir.Dim(row), ir.Dim(col)) }

// SymmetricOperand returns a symmetric input of shape d[dim] × d[dim].
func SymmetricOperand(id string, dim int) IRNode { return ir.NewSymmetric(id, ir.Dim(dim)) }

// SPDOperand returns a symmetric positive definite input of shape
// d[dim] × d[dim]; executors materialise it accordingly, and it
// licenses Cholesky-based inverse lowering.
func SPDOperand(id string, dim int) IRNode { return ir.NewSPD(id, ir.Dim(dim)) }

// Transpose returns the transposed view of x (double transposition
// cancels; transposing a symmetric operand is the identity).
func Transpose(x IRNode) IRNode { return ir.T(x) }

// Mul returns the associative product of the factors: the enumerator
// derives every multiplication order. Using the same node twice marks a
// common subexpression, computed once.
func Mul(factors ...IRNode) IRNode { return ir.Mul(factors...) }

// MulFixed returns the product with the grouping pinned left to right.
func MulFixed(factors ...IRNode) IRNode { return ir.MulFixed(factors...) }

// AddInto returns the two-term sum accumulated in place into the
// operand named name (one computed symmetric term plus one symmetric
// input).
func AddInto(name string, terms ...IRNode) IRNode { return ir.Add(name, terms...) }

// SolveWith returns inv(s)·rhs in solve form: an SPD s lowers to a
// Cholesky factorisation plus two in-place triangular solves, in both
// pipeline orderings.
func SolveWith(s, rhs IRNode) IRNode { return ir.Solve(s, rhs) }

// DefineExpression validates the tree and returns the Expression whose
// algorithm set the enumerator derives from it. The result operand is
// named "X"; arity is the number of instance dimensions. A tree whose
// set would exceed the enumerator's limit returns ErrTooManyAlgorithms.
func DefineExpression(name string, arity int, root IRNode) (GenericExpression, error) {
	return expr.NewGeneric(&ir.Def{Name: name, Arity: arity, Root: root})
}

// MinFlopsParenthesisation is the classic O(n³) dynamic program for the
// matrix chain: minimum FLOPs over all parenthesisations plus one optimal
// tree.
func MinFlopsParenthesisation(dims []int) (float64, string) {
	return expr.MinFlopsParenthesisation(dims)
}

// PaperBox returns the paper's search space, 20 ≤ dᵢ ≤ 1200.
func PaperBox(arity int) Box { return expr.PaperBox(arity) }

// UniformBox returns a box with range [lo, hi] in every dimension.
func UniformBox(arity, lo, hi int) Box { return expr.UniformBox(arity, lo, hi) }

// DefaultMachineConfig returns the calibrated simulated-machine
// configuration (a 10-core Xeon-class machine; see DESIGN.md).
func DefaultMachineConfig() MachineConfig { return machine.Default() }

// AltMachineConfig returns a second calibrated machine (16 wider cores,
// a different BLAS generation) for cross-machine anomaly studies: the
// paper's conclusion predicts that anomalies move when the setup changes.
func AltMachineConfig() MachineConfig { return machine.DefaultAlt() }

// NewSimExecutor returns the simulated executor on the calibrated default
// machine.
func NewSimExecutor() Executor { return exec.NewDefaultSimulated() }

// NewSimExecutorWith returns a simulated executor on a custom machine
// configuration (used by the ablation benchmarks).
func NewSimExecutorWith(cfg MachineConfig) Executor {
	return exec.NewSimulated(machine.New(cfg))
}

// NewMeasuredExecutor returns the executor that times the pure-Go BLAS
// kernels.
func NewMeasuredExecutor() Executor { return exec.NewMeasured() }

// NewTimer wraps an executor with the paper's protocol (median of 10
// repetitions, cache flushed before each).
func NewTimer(e Executor) *Timer { return exec.NewTimer(e) }

// NewSimTimer is shorthand for NewTimer(NewSimExecutor()).
func NewSimTimer() *Timer { return exec.NewTimer(exec.NewDefaultSimulated()) }

// NewRunner returns a Runner classifying instances of e at the given
// time-score threshold.
func NewRunner(e Expression, t *Timer, threshold float64) *Runner {
	return core.NewRunner(e, t, threshold)
}

// Classify labels an instance from per-algorithm FLOP counts and times.
func Classify(flops, times []float64, threshold float64) Classification {
	return core.Classify(flops, times, threshold)
}

// The experiment drivers spread their evaluations over workers; one
// worker is the serial case, and the results are bit-identical at every
// worker count. More than one worker requires a concurrency-safe
// executor (the simulated backend is; the measured backend is not).

// RunExperiment1 performs the paper's random search for anomalies.
func RunExperiment1(r *Runner, cfg Exp1Config, workers int) Exp1Result {
	return core.RunExp1(r, cfg, workers)
}

// RunExperiment2 traverses axis-aligned lines through anomalies.
func RunExperiment2(r *Runner, anomalies []Instance, cfg Exp2Config, workers int) Exp2Result {
	return core.RunExp2(r, anomalies, cfg, workers)
}

// DefaultExp2Config returns the paper's Experiment 2 settings (step 10,
// regions end at 3 consecutive non-anomalies).
func DefaultExp2Config(box Box) Exp2Config { return core.DefaultExp2Config(box) }

// RunExperiment3 predicts anomalies from isolated kernel benchmarks and
// tallies the confusion matrix.
func RunExperiment3(r *Runner, exp2 Exp2Result, cfg Exp3Config, workers int) Exp3Result {
	return core.RunExp3(r, exp2, cfg, workers)
}

// EfficiencyCurve measures a kernel's efficiency on square operands — the
// data behind the paper's Figure 1.
func EfficiencyCurve(t *Timer, kind KernelKind, sizes []int) []CurvePoint {
	return profile.EfficiencyCurve(t, kind, sizes)
}

// MeasureProfiles benchmarks performance profiles for every kernel kind
// on a geometric grid with the given points per dimension.
func MeasureProfiles(t *Timer, points int) *ProfileSet { return profile.MeasureSet(t, points) }

// WriteProfiles persists a profile set with its provenance as
// schema-versioned JSON (the `lamb profile` artifact).
func WriteProfiles(path string, s *ProfileSet, meta ProfileMeta) error {
	return profile.WriteFile(path, s, meta)
}

// ReadProfiles loads a persisted profile set; predictions from the
// loaded set are identical to the freshly measured one.
func ReadProfiles(path string) (*ProfileSet, ProfileMeta, error) { return profile.ReadFile(path) }

// HostProfileMeta returns provenance describing the current host;
// callers fill in the measurement-specific fields.
func HostProfileMeta() ProfileMeta { return profile.HostMeta() }

// EvaluateStrategies measures selection-strategy regret on random
// instances.
func EvaluateStrategies(e Expression, t *Timer, strategies []Strategy, cfg SelectionConfig) []SelectionReport {
	return selection.Evaluate(e, t, strategies, cfg)
}

// EvaluateAlgorithm executes an algorithm's kernel sequence on concrete
// inputs with the pure-Go BLAS and returns the result matrix (the
// correctness path: all algorithms of an expression agree numerically).
func EvaluateAlgorithm(alg *Algorithm, inputs map[string]*Matrix) *Matrix {
	return exec.EvaluateAlgorithm(alg, inputs)
}

// NewMatrix returns a zeroed r-by-c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// NewRandomMatrix returns an r-by-c matrix with deterministic uniform
// entries in [-1, 1) drawn from the given seed.
func NewRandomMatrix(r, c int, seed uint64) *Matrix {
	return mat.NewRandom(r, c, xrand.New(seed))
}
