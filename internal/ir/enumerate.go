package ir

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"lamb/internal/kernels"
)

// The enumerator derives every algorithm of a Def by recursive lowering:
// each tree node maps to the ordered list of its derivations ("plans"),
// and composite nodes combine child derivations deterministically. The
// rewrite rules are
//
//   - associative products: every multiplication order, by depth-first
//     contraction of adjacent factor pairs — finer-grained than
//     parenthesisations, matching the paper's algorithm numbering for
//     the chain (Figure 3);
//   - Gram products A·Aᵀ and Aᵀ·A: SYRK (half the FLOPs, triangular
//     result; the transposed read lowers to the kernel's TransA flag)
//     before GEMM;
//   - products with a symmetric left operand: SYMM before GEMM, with a
//     Tri2Full copy inserted whenever a triangle-only operand feeds a
//     full-storage read (the paper's AAᵀB Algorithm 2);
//   - SPD inverses in solve position: POTRF plus two TRSMs, with both
//     right-hand-side orderings (factor-then-RHS and RHS-then-factor —
//     identical FLOPs, different inter-kernel cache behaviour);
//   - common subexpressions: a factor node used twice in one product is
//     computed once and its result reused.
//
// Enumeration order is deterministic: choice points are visited outer
// to inner in the order listed above, which reproduces the paper's
// algorithm numbering for the pinned expressions.
//
// Lowering is entirely symbolic: dimensions stay Dim references, so one
// enumeration serves every instance of the expression. Binding a
// concrete instance (SymbolicSet.Bind) is a substitution pass.

// value describes one operand available during lowering: an input leaf
// (possibly read transposed) or a materialised intermediate. Dimensions
// are symbolic.
type value struct {
	id         string
	rows, cols Dim
	// sym marks a mathematically symmetric value; spd additionally
	// positive definite; tri means only the lower triangle is stored
	// (a SYRK result before any Tri2Full).
	sym, spd, tri bool
	// trans marks a transposed read of a leaf (lowered to kernel
	// transpose flags); rows/cols are post-transposition.
	trans bool
	leaf  bool
}

// render is the value's symbolic form in step names.
func (v value) render() string {
	if v.trans {
		return v.id + "ᵀ"
	}
	return v.id
}

// shapeEntry records one operand materialised by a plan.
type shapeEntry struct {
	id string
	sh SymShape
}

// plan is one derivation prefix: the ordered call skeletons emitted so
// far, their step names, the shapes of materialised operands, the number
// of M<i> temporaries consumed, and the value produced.
type plan struct {
	calls []SymCall
	steps []string
	local []shapeEntry
	temps int
	val   value
}

// then returns the concatenation p followed by q, producing q's value.
// Slices are freshly allocated so plans can be shared across branches.
func (p plan) then(q plan) plan {
	out := plan{
		calls: make([]SymCall, 0, len(p.calls)+len(q.calls)),
		steps: make([]string, 0, len(p.steps)+len(q.steps)),
		local: make([]shapeEntry, 0, len(p.local)+len(q.local)),
		temps: p.temps + q.temps,
		val:   q.val,
	}
	out.calls = append(append(out.calls, p.calls...), q.calls...)
	out.steps = append(append(out.steps, p.steps...), q.steps...)
	out.local = append(append(out.local, p.local...), q.local...)
	return out
}

// Symbolic call constructors, mirroring the kernels.New* constructors so
// binding reproduces their output exactly (dimension conventions
// included — SYRK's N≡M, SYMM's K≡M, the in-place aliases).

func symGemm(m, n, k Dim, a, b, c string, transA, transB bool) SymCall {
	return SymCall{Kind: kernels.Gemm, M: m, N: n, K: k, TransA: transA, TransB: transB, In: []string{a, b}, Out: c}
}

func symSyrk(m, k Dim, a, c string) SymCall {
	return SymCall{Kind: kernels.Syrk, M: m, N: m, K: k, In: []string{a}, Out: c}
}

func symSyrkT(m, k Dim, a, c string) SymCall {
	return SymCall{Kind: kernels.Syrk, M: m, N: m, K: k, TransA: true, In: []string{a}, Out: c}
}

func symSymm(m, n Dim, a, b, c string) SymCall {
	return SymCall{Kind: kernels.Symm, M: m, N: n, K: m, In: []string{a, b}, Out: c}
}

func symTri2Full(m Dim, c string) SymCall {
	return SymCall{Kind: kernels.Tri2Full, M: m, N: m, K: NoDim, In: []string{c}, Out: c}
}

func symPotrf(m Dim, s string) SymCall {
	return SymCall{Kind: kernels.Potrf, M: m, N: m, K: NoDim, In: []string{s}, Out: s}
}

func symTrsm(m, n Dim, l, b string, trans bool) SymCall {
	return SymCall{Kind: kernels.Trsm, M: m, N: n, K: NoDim, TransA: trans, In: []string{l, b}, Out: b}
}

func symAddSym(m Dim, c, a string) SymCall {
	return SymCall{Kind: kernels.AddSym, M: m, N: m, K: NoDim, In: []string{c, a}, Out: c}
}

// MaxAlgorithms is the largest algorithm set the enumerator builds. It
// admits the 9-term chain (8! = 40320 orders) and every registered
// expression, and refuses the 10-term chain (9! = 362880), whose
// enumeration would allocate gigabytes.
const MaxAlgorithms = 50_000

// maxAlgorithms is the limit in force; tests lower it to reach the
// enumeration backstop with small definitions.
var maxAlgorithms = MaxAlgorithms

// ErrTooManyAlgorithms reports a definition whose algorithm set would
// exceed MaxAlgorithms.
var ErrTooManyAlgorithms = errors.New("ir: algorithm set too large")

func tooMany(name string, n int) error {
	return fmt.Errorf("%w: %s has at least %d algorithms, over the limit of %d", ErrTooManyAlgorithms, name, n, maxAlgorithms)
}

// lowerBound is a lower bound on the size of root's algorithm set: the
// product of (k−1)! over the distinct non-fixed products of k factors,
// each of which the enumerator contracts in every order. It stops
// multiplying once the bound passes the limit, so it cannot overflow.
func lowerBound(root Node) int {
	n := 1
	seen := map[*Product]bool{}
	var walk func(Node)
	walk = func(x Node) {
		switch x := x.(type) {
		case *Transpose:
			walk(x.X)
		case *Inverse:
			walk(x.X)
		case *Sum:
			for _, t := range x.Terms {
				walk(t)
			}
		case *Product:
			if seen[x] {
				return
			}
			seen[x] = true
			for i := 2; !x.Fixed && i < len(x.Factors) && n <= maxAlgorithms; i++ {
				n *= i
			}
			for _, f := range x.Factors {
				walk(f)
			}
		}
	}
	walk(root)
	return n
}

// enum carries the per-enumeration state.
type enum struct {
	def *Def
}

// bound stops the enumeration once a list of plans passes the limit,
// for sets whose kernel choices, not their orders, make them too large.
func (e *enum) bound(n int) error {
	if n > maxAlgorithms {
		return tooMany(e.def.Name, n)
	}
	return nil
}

// leafValue returns the value of a leaf node (an operand or a
// transposed operand). Transposing a symmetric operand is the identity.
func (e *enum) leafValue(n Node) (value, error) {
	switch n := n.(type) {
	case *Operand:
		return value{
			id:   n.ID,
			rows: n.RowDim, cols: n.ColDim,
			sym: n.Props.Has(Symmetric), spd: n.Props.Has(SPD), tri: n.Props.Has(LowerTri),
			leaf: true,
		}, nil
	case *Transpose:
		op, ok := n.X.(*Operand)
		if !ok {
			return value{}, fmt.Errorf("ir: transpose of computed subexpression %s is outside the supported fragment", n.X.render())
		}
		v, err := e.leafValue(op)
		if err != nil {
			return value{}, err
		}
		if v.sym {
			return v, nil
		}
		v.rows, v.cols = v.cols, v.rows
		v.trans = true
		return v, nil
	default:
		return value{}, fmt.Errorf("ir: %s is not a leaf", n.render())
	}
}

func isLeaf(n Node) bool {
	switch n := n.(type) {
	case *Operand:
		return true
	case *Transpose:
		_, ok := n.X.(*Operand)
		return ok
	}
	return false
}

// nodeName returns the explicit result name of a node, if any.
func nodeName(n Node) string {
	switch n := n.(type) {
	case *Product:
		return n.Name
	case *Sum:
		return n.Name
	}
	return ""
}

func tempName(i int) string { return fmt.Sprintf("M%d", i) }

// step renders one product step: "out:=kernel(L·R)" in kernel style,
// "out:=L·R" in bare style.
func (e *enum) step(out, kernel string, l, r value) string {
	prod := l.render() + "·" + r.render()
	if e.def.Style == StyleBare {
		return out + ":=" + prod
	}
	return out + ":=" + kernel + "(" + prod + ")"
}

// lower enumerates the derivations of node n. A non-empty dest requires
// the result to be materialised in the operand named dest; leaves
// therefore reject it (there is no copy kernel).
func (e *enum) lower(n Node, dest string, nextTemp int) ([]plan, error) {
	switch n := n.(type) {
	case *Operand, *Transpose:
		v, err := e.leafValue(n)
		if err != nil {
			return nil, err
		}
		if dest != "" {
			return nil, fmt.Errorf("ir: cannot materialise input %s into %q (no copy kernel)", n.render(), dest)
		}
		return []plan{{val: v}}, nil
	case *Product:
		if len(n.Factors) == 0 {
			return nil, fmt.Errorf("ir: empty product")
		}
		if inv, ok := n.Factors[0].(*Inverse); len(n.Factors) == 2 && ok {
			if !n.Fixed {
				return nil, fmt.Errorf("ir: solve form %s must be a fixed product (use Solve or MulFixed)", n.render())
			}
			return e.lowerSolve(inv, n.Factors[1], dest, nextTemp)
		}
		for _, f := range n.Factors {
			if _, ok := f.(*Inverse); ok {
				return nil, fmt.Errorf("ir: inverse in %s must be the left factor of a two-factor fixed product", n.render())
			}
		}
		return e.lowerProduct(n, dest, nextTemp)
	case *Sum:
		return e.lowerSum(n, dest, nextTemp)
	case *Inverse:
		return nil, fmt.Errorf("ir: inverse %s outside solve position (inverses are never materialised)", n.render())
	default:
		return nil, fmt.Errorf("ir: unknown node type %T", n)
	}
}

// factorsPlan pairs a prefix plan (computing every non-leaf factor) with
// the per-factor values.
type factorsPlan struct {
	pre  plan
	vals []value
}

// lowerFactors enumerates the ways to make every factor of a product
// available, computing non-leaf factors into named or temporary
// operands. A factor node occurring more than once is computed once and
// shared (common-subexpression sharing).
func (e *enum) lowerFactors(factors []Node, fixed bool, nextTemp int, shared map[Node]value) ([]factorsPlan, error) {
	if len(factors) == 0 {
		return []factorsPlan{{}}, nil
	}
	f, rest := factors[0], factors[1:]

	// Enumerate the head's alternatives.
	var heads []plan
	switch {
	case isLeaf(f):
		v, err := e.leafValue(f)
		if err != nil {
			return nil, err
		}
		heads = []plan{{val: v}}
	default:
		if v, ok := shared[f]; ok {
			// Shared subexpression: already computed on this branch.
			heads = []plan{{val: v}}
			break
		}
		if !fixed {
			return nil, fmt.Errorf("ir: computed factor %s requires a fixed product (re-association across computed factors is unsupported)", f.render())
		}
		target := nodeName(f)
		extra := 0
		if target == "" {
			target = tempName(nextTemp)
			extra = 1
		}
		sub, err := e.lower(f, target, nextTemp+extra)
		if err != nil {
			return nil, err
		}
		heads = make([]plan, len(sub))
		for i, sp := range sub {
			sp.temps += extra
			heads[i] = sp
		}
	}

	var out []factorsPlan
	for _, h := range heads {
		sh := shared
		if !isLeaf(f) {
			sh = make(map[Node]value, len(shared)+1)
			for k, v := range shared {
				sh[k] = v
			}
			sh[f] = h.val
		}
		tails, err := e.lowerFactors(rest, fixed, nextTemp+h.temps, sh)
		if err != nil {
			return nil, err
		}
		for _, t := range tails {
			out = append(out, factorsPlan{
				pre:  h.then(t.pre),
				vals: append([]value{h.val}, t.vals...),
			})
		}
		if err := e.bound(len(out)); err != nil {
			return nil, err
		}
	}
	// h.then(t.pre) replaces the value; restore per-factor values above.
	for i := range out {
		out[i].pre.val = value{}
	}
	return out, nil
}

// lowerProduct enumerates a product without inverses: factors first,
// then every contraction order (or only left-to-right if Fixed) with
// every kernel choice per pairwise product.
func (e *enum) lowerProduct(p *Product, dest string, nextTemp int) ([]plan, error) {
	if len(p.Factors) == 0 {
		return nil, fmt.Errorf("ir: empty product")
	}
	if dest == "" && p.Name != "" {
		dest = p.Name
	}
	fps, err := e.lowerFactors(p.Factors, p.Fixed, nextTemp, nil)
	if err != nil {
		return nil, err
	}
	var out []plan
	for _, fp := range fps {
		cps, err := e.contract(fp.vals, p.Fixed, dest, nextTemp+fp.pre.temps)
		if err != nil {
			return nil, err
		}
		for _, cp := range cps {
			out = append(out, fp.pre.then(cp))
		}
		if err := e.bound(len(out)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// contract enumerates the multiplication orders of the segments by
// depth-first contraction of adjacent pairs, writing the final product
// into dest.
func (e *enum) contract(segs []value, fixed bool, dest string, nextTemp int) ([]plan, error) {
	if len(segs) == 1 {
		v := segs[0]
		if dest != "" && v.id != dest {
			return nil, fmt.Errorf("ir: single-factor product %s cannot be renamed to %q", v.render(), dest)
		}
		return []plan{{val: v}}, nil
	}
	last := len(segs) == 2
	pairs := len(segs) - 1
	if fixed {
		pairs = 1
	}
	var out []plan
	for p := 0; p < pairs; p++ {
		outID := dest
		extra := 0
		if !last || outID == "" {
			outID = tempName(nextTemp)
			extra = 1
		}
		pps, err := e.pairPlans(segs[p], segs[p+1], outID)
		if err != nil {
			return nil, err
		}
		for _, pp := range pps {
			pp.temps += extra
			merged := make([]value, 0, len(segs)-1)
			merged = append(merged, segs[:p]...)
			merged = append(merged, pp.val)
			merged = append(merged, segs[p+2:]...)
			rests, err := e.contract(merged, fixed, dest, nextTemp+extra)
			if err != nil {
				return nil, err
			}
			for _, rp := range rests {
				out = append(out, pp.then(rp))
			}
			if err := e.bound(len(out)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// tri2full returns the plan fragment mirroring a triangle-only operand
// to full storage ahead of a full-storage read. Inputs are rejected:
// mirroring mutates the operand in place, which must not happen to
// caller-owned data.
func tri2full(v value) (plan, error) {
	if v.leaf {
		return plan{}, fmt.Errorf("ir: triangle-stored input %q cannot feed a full-storage kernel (the Tri2Full copy would mutate the input)", v.id)
	}
	return plan{
		calls: []SymCall{symTri2Full(v.rows, v.id)},
		steps: []string{"tri2full(" + v.id + ")"},
	}, nil
}

// pairPlans enumerates the kernel choices for the pairwise product
// out := l · r. Choice order (most structure-exploiting first) fixes
// the algorithm numbering.
func (e *enum) pairPlans(l, r value, out string) ([]plan, error) {
	if l.cols != r.rows {
		return nil, fmt.Errorf("ir: product %s·%s has mismatched inner dimensions %s and %s",
			l.render(), r.render(), l.cols.render(), r.rows.render())
	}
	m, n, k := l.rows, r.cols, l.cols
	outShape := shapeEntry{id: out, sh: SymShape{Rows: m, Cols: n}}
	gemmVal := value{id: out, rows: m, cols: n}

	// Gram product A·Aᵀ: SYRK (triangular result) or GEMM; both yield a
	// symmetric value.
	if l.leaf && r.leaf && l.id == r.id && !l.trans && r.trans {
		symVal := value{id: out, rows: m, cols: m, sym: true}
		syrk := plan{
			calls: []SymCall{symSyrk(m, k, l.id, out)},
			steps: []string{e.step(out, "syrk", l, r)},
			local: []shapeEntry{outShape},
			val:   symVal,
		}
		syrk.val.tri = true
		gemm := plan{
			calls: []SymCall{symGemm(m, m, k, l.id, r.id, out, false, true)},
			steps: []string{e.step(out, "gemm", l, r)},
			local: []shapeEntry{outShape},
			val:   symVal,
		}
		return []plan{syrk, gemm}, nil
	}

	// Gram product Aᵀ·A: the transposed-SYRK rewrite (dsyrk trans='T'),
	// then GEMM — the mirror image of the A·Aᵀ case.
	if l.leaf && r.leaf && l.id == r.id && l.trans && !r.trans {
		symVal := value{id: out, rows: m, cols: m, sym: true}
		syrk := plan{
			calls: []SymCall{symSyrkT(m, k, l.id, out)},
			steps: []string{e.step(out, "syrk", l, r)},
			local: []shapeEntry{outShape},
			val:   symVal,
		}
		syrk.val.tri = true
		gemm := plan{
			calls: []SymCall{symGemm(m, m, k, l.id, r.id, out, true, false)},
			steps: []string{e.step(out, "gemm", l, r)},
			local: []shapeEntry{outShape},
			val:   symVal,
		}
		return []plan{syrk, gemm}, nil
	}

	// Symmetric left operand: SYMM (reads the lower triangle, so a
	// triangle-only left operand needs no copy) before GEMM (reads full
	// storage, so triangle-only operands are mirrored first).
	if l.sym && !l.trans {
		var out2 []plan
		if !r.trans { // SYMM has no transposed-B read
			symm := plan{
				calls: []SymCall{symSymm(m, n, l.id, r.id, out)},
				steps: []string{e.step(out, "symm", l, r)},
				local: []shapeEntry{outShape},
				val:   gemmVal,
			}
			if r.tri {
				mirror, err := tri2full(r)
				if err != nil {
					return nil, err
				}
				symm = mirror.then(symm)
			}
			out2 = append(out2, symm)
		}
		gemm, err := e.gemmPlan(l, r, out, false)
		if err != nil {
			return nil, err
		}
		return append(out2, gemm), nil
	}

	// General (or symmetric-right: the kernel set has no right-sided
	// SYMM): GEMM with transpose flags, mirroring triangle-only
	// operands first.
	gemm, err := e.gemmPlan(l, r, out, l.trans)
	if err != nil {
		return nil, err
	}
	return []plan{gemm}, nil
}

// gemmPlan builds the GEMM choice for out := l·r, mirroring any
// triangle-only operand to full storage first.
func (e *enum) gemmPlan(l, r value, out string, transA bool) (plan, error) {
	m, n, k := l.rows, r.cols, l.cols
	gemm := plan{
		calls: []SymCall{symGemm(m, n, k, l.id, r.id, out, transA, r.trans)},
		steps: []string{e.step(out, "gemm", l, r)},
		local: []shapeEntry{shapeEntry{id: out, sh: SymShape{Rows: m, Cols: n}}},
		val:   value{id: out, rows: m, cols: n},
	}
	if r.tri && r.id != l.id {
		mirror, err := tri2full(r)
		if err != nil {
			return plan{}, err
		}
		gemm = mirror.then(gemm)
	}
	if l.tri {
		mirror, err := tri2full(l)
		if err != nil {
			return plan{}, err
		}
		gemm = mirror.then(gemm)
	}
	return gemm, nil
}

// lowerSum lowers the in-place accumulation S := computed + leaf: the
// computed term is evaluated into the sum's name, then the leaf is
// added with AddSym.
func (e *enum) lowerSum(s *Sum, dest string, nextTemp int) ([]plan, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("ir: sum %s needs a Name for its accumulator", s.render())
	}
	if dest != "" && dest != s.Name {
		return nil, fmt.Errorf("ir: sum %q cannot be materialised into %q", s.Name, dest)
	}
	if len(s.Terms) != 2 {
		return nil, fmt.Errorf("ir: sum %s must have exactly 2 terms, has %d", s.render(), len(s.Terms))
	}
	var leafOp *Operand
	var comp Node
	for _, t := range s.Terms {
		if o, ok := t.(*Operand); ok && leafOp == nil {
			leafOp = o
		} else {
			comp = t
		}
	}
	if leafOp == nil {
		return nil, fmt.Errorf("ir: sum %s needs one leaf term to accumulate in place", s.render())
	}
	if isLeaf(comp) {
		return nil, fmt.Errorf("ir: sum %s needs one computed term (two-input sums have no kernel)", s.render())
	}
	if !leafOp.Props.Has(Symmetric) {
		return nil, fmt.Errorf("ir: sum leaf %q must be symmetric (AddSym accumulates triangles)", leafOp.ID)
	}
	plans, err := e.lower(comp, s.Name, nextTemp)
	if err != nil {
		return nil, err
	}
	out := make([]plan, 0, len(plans))
	for _, p := range plans {
		v := p.val
		if !v.sym {
			return nil, fmt.Errorf("ir: sum %q computed term %s is not symmetric", s.Name, comp.render())
		}
		if v.rows != v.cols || v.rows != leafOp.RowDim {
			return nil, fmt.Errorf("ir: sum %q terms have mismatched shapes %sx%s and %sx%s",
				s.Name, v.rows.render(), v.cols.render(), leafOp.RowDim.render(), leafOp.ColDim.render())
		}
		add := plan{
			calls: []SymCall{symAddSym(v.rows, s.Name, leafOp.ID)},
			steps: []string{s.Name + "+=" + leafOp.ID},
		}
		np := p.then(add)
		// AddSym accumulates the lower triangle only, so the sum is
		// triangle-only storage regardless of how the computed term was
		// produced: a full-storage consumer needs the Tri2Full mirror.
		np.val = value{
			id: s.Name, rows: v.rows, cols: v.cols,
			sym: true, spd: leafOp.Props.Has(SPD), tri: true,
		}
		out = append(out, np)
	}
	return out, nil
}

// lowerSolve lowers X := inv(S)·rhs for SPD S: the S pipeline plus a
// Cholesky factorisation, the right-hand side computed into dest, and
// two triangular solves in place — in both orderings of the two
// independent pipelines (the paper's Algorithm 2-versus-5 distinction:
// identical FLOPs, different inter-kernel cache behaviour).
func (e *enum) lowerSolve(inv *Inverse, rhs Node, dest string, nextTemp int) ([]plan, error) {
	if dest == "" {
		return nil, fmt.Errorf("ir: solve %s·%s needs a destination operand", inv.render(), rhs.render())
	}
	if isLeaf(rhs) {
		return nil, fmt.Errorf("ir: solve right-hand side %s must be computed (an in-place solve would overwrite an input)", rhs.render())
	}
	sPlans, err := e.lower(inv.X, "", nextTemp)
	if err != nil {
		return nil, err
	}
	pPlans, err := e.lower(rhs, dest, nextTemp)
	if err != nil {
		return nil, err
	}
	var out []plan
	for _, sp := range sPlans {
		sv := sp.val
		if sv.leaf {
			return nil, fmt.Errorf("ir: inverse of input %q would factor it in place; wrap it in a named sum or product", sv.id)
		}
		if sp.temps > 0 {
			return nil, fmt.Errorf("ir: inverse operand pipeline %s must use named operands only", inv.X.render())
		}
		if !sv.spd {
			return nil, fmt.Errorf("ir: inverse of %s needs an SPD operand (only Cholesky lowering is supported)", inv.X.render())
		}
		chol := sp.then(plan{
			calls: []SymCall{symPotrf(sv.rows, sv.id)},
			steps: []string{"L:=potrf(" + sv.id + ")"},
		})
		for _, pp := range pPlans {
			pv := pp.val
			if pv.id != dest {
				return nil, fmt.Errorf("ir: solve right-hand side did not materialise %q", dest)
			}
			if sv.rows != pv.rows {
				return nil, fmt.Errorf("ir: solve %s·%s has mismatched dimensions %s and %s",
					inv.render(), rhs.render(), sv.rows.render(), pv.rows.render())
			}
			solves := plan{
				calls: []SymCall{
					symTrsm(sv.rows, pv.cols, sv.id, dest, false),
					symTrsm(sv.rows, pv.cols, sv.id, dest, true),
				},
				steps: []string{"trsm(L)", "trsm(Lᵀ)"},
			}
			for _, sFirst := range []bool{true, false} {
				pre := chol.then(pp)
				if !sFirst {
					pre = pp.then(chol)
				}
				fin := pre.then(solves)
				fin.val = value{id: dest, rows: sv.rows, cols: pv.cols}
				out = append(out, fin)
			}
			if err := e.bound(len(out)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// EnumerateSymbolic generates the complete symbolic algorithm set of the
// definition: every derivation the rewrite rules produce, lowered to
// call skeletons, named, shape-checked, and numbered in enumeration
// order. Enumeration is instance-independent and runs once per
// expression; Bind resolves the set against concrete instances.
//
// A definition whose set is known to exceed MaxAlgorithms from its
// products alone is refused first, before it is validated or
// enumerated, so a long product fails in microseconds; one whose kernel
// choices pass the limit stops mid-enumeration. Both return
// ErrTooManyAlgorithms.
func EnumerateSymbolic(def *Def) (*SymbolicSet, error) {
	if n := lowerBound(def.Root); n > maxAlgorithms {
		return nil, tooMany(def.Name, n)
	}
	if err := def.Validate(); err != nil {
		return nil, err
	}
	enumerations.Add(1)
	ls, err := leaves(def.Root)
	if err != nil {
		return nil, err
	}
	e := &enum{def: def}
	plans, err := e.lower(def.Root, Output, 1)
	if err != nil {
		return nil, err
	}

	leafShapes := make(map[string]SymShape, len(ls))
	inputs := make([]string, 0, len(ls))
	var spd []string
	for _, l := range ls {
		leafShapes[l.ID] = SymShape{Rows: l.RowDim, Cols: l.ColDim}
		inputs = append(inputs, l.ID)
		if l.Props.Has(SPD) {
			spd = append(spd, l.ID)
		}
	}
	sort.Strings(inputs)
	sort.Strings(spd)

	algs := make([]SymAlgorithm, len(plans))
	for i, p := range plans {
		if p.val.id != Output {
			return nil, fmt.Errorf("ir: %s derivation %d did not produce %q", def.Name, i+1, Output)
		}
		shapes := make(map[string]SymShape, len(leafShapes)+len(p.local))
		for id, sh := range leafShapes {
			shapes[id] = sh
		}
		for _, en := range p.local {
			if prev, ok := shapes[en.id]; ok && prev != en.sh {
				return nil, fmt.Errorf("ir: %s materialises %q with conflicting shapes %v and %v",
					def.Name, en.id, prev, en.sh)
			}
			shapes[en.id] = en.sh
		}
		var spdIn []string
		if len(spd) > 0 {
			spdIn = append([]string(nil), spd...)
		}
		algs[i] = SymAlgorithm{
			Index:     i + 1,
			Name:      strings.Join(p.steps, "; "),
			Calls:     p.calls,
			Shapes:    shapes,
			Inputs:    append([]string(nil), inputs...),
			SPDInputs: spdIn,
			Output:    Output,
		}
		if err := algs[i].validate(); err != nil {
			return nil, fmt.Errorf("ir: %s: %w", def.Name, err)
		}
	}
	return &SymbolicSet{def: def, algs: algs}, nil
}
