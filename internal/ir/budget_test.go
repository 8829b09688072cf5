package ir

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// chainDef returns the associative product of n general operands
// A, B, … with operand i of shape d(i mod arity) × d(i+1 mod arity).
func chainDef(n, arity int) *Def {
	factors := make([]Node, n)
	for i := range factors {
		factors[i] = NewOperand(string(rune('A'+i)), Dim(i%arity), Dim((i+1)%arity))
	}
	return &Def{Name: "chain", Arity: arity, Root: Mul(factors...)}
}

// TestEnumerationBudgetPrecheck checks that a product whose orders alone
// pass the limit is refused before anything is enumerated, and that
// one of nine factors, whose 8! orders fit, is not.
func TestEnumerationBudgetPrecheck(t *testing.T) {
	enums := Enumerations()
	for _, n := range []int{10, 12, 26} {
		_, err := EnumerateSymbolic(chainDef(n, 6))
		if !errors.Is(err, ErrTooManyAlgorithms) {
			t.Errorf("%d-factor product: error %v, want ErrTooManyAlgorithms", n, err)
		}
	}
	if got := Enumerations(); got != enums {
		t.Errorf("refused products enumerated %d sets", got-enums)
	}
	if n := lowerBound(chainDef(9, 6).Root); n != 40320 {
		t.Errorf("9-factor product: lower bound %d, want 8! = 40320", n)
	}
}

// TestEnumerationBudgetBackstop lowers the limit between the lower
// bound of AAᵀBC (3! = 6 orders) and its 15 algorithms, so the bound
// admits it and the enumeration itself must stop it.
func TestEnumerationBudgetBackstop(t *testing.T) {
	defer func(limit int) { maxAlgorithms = limit }(maxAlgorithms)
	maxAlgorithms = 10
	a := NewOperand("A", 0, 1)
	def := &Def{Name: "aatbc", Arity: 4, Root: Mul(a, T(a), NewOperand("B", 0, 2), NewOperand("C", 2, 3))}
	if n := lowerBound(def.Root); n > maxAlgorithms {
		t.Fatalf("lower bound %d already passes the limit", n)
	}
	enums := Enumerations()
	_, err := EnumerateSymbolic(def)
	if !errors.Is(err, ErrTooManyAlgorithms) {
		t.Fatalf("error %v, want ErrTooManyAlgorithms", err)
	}
	if Enumerations() != enums+1 {
		t.Fatal("the set was refused before enumeration, not during it")
	}
}

// fuzzTree decodes bytes into an expression tree over at most 12
// distinct operands (A to L), reading one byte per choice and 0 once
// the input runs out.
type fuzzTree struct {
	data  []byte
	arity int
	built []Node
}

func (f *fuzzTree) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return int(b)
}

func (f *fuzzTree) id() string   { return string(rune('A' + f.next()%12)) }
func (f *fuzzTree) dim() Dim     { return Dim(f.next() % f.arity) }
func (f *fuzzTree) name() string { return []string{"", "P", "Q", "S"}[f.next()%4] }

// node decodes one node. Below depth 4 it may be composite: a product
// (associative or fixed) of 1 to 12 factors, a transpose, a sum, a
// solve, or a composite node decoded before (a shared subexpression).
func (f *fuzzTree) node(depth int) Node {
	op := f.next() % 10
	if depth >= 4 {
		op %= 4
	}
	var n Node
	switch op {
	case 0:
		return NewOperand(f.id(), f.dim(), f.dim())
	case 1:
		return NewSymmetric(f.id(), f.dim())
	case 2:
		return NewSPD(f.id(), f.dim())
	case 3:
		return T(NewOperand(f.id(), f.dim(), f.dim()))
	case 4, 5:
		p := &Product{Factors: make([]Node, 1+f.next()%12), Fixed: op == 5, Name: f.name()}
		for i := range p.Factors {
			p.Factors[i] = f.node(depth + 1)
		}
		n = p
	case 6:
		n = T(f.node(depth + 1))
	case 7:
		n = Add(f.name(), f.node(depth+1), f.node(depth+1))
	case 8:
		n = Solve(f.node(depth+1), f.node(depth+1))
	case 9:
		if len(f.built) == 0 {
			return NewOperand(f.id(), f.dim(), f.dim())
		}
		return f.built[f.next()%len(f.built)]
	}
	f.built = append(f.built, n)
	return n
}

// decodeDef decodes the arity (1 to 6) and then the root.
func decodeDef(data []byte) *Def {
	f := &fuzzTree{data: data}
	f.arity = 1 + f.next()%6
	return &Def{Name: "fuzz", Arity: f.arity, Root: f.node(0)}
}

// FuzzEnumerate builds a tree from the input, enumerates it and binds
// the set at a fixed instance. Every tree must either return an error
// or give a set of at most MaxAlgorithms valid algorithms, at least as
// large as its lower bound, and nothing may panic. The seed corpus under
// testdata/fuzz/FuzzEnumerate holds a refused 12-operand product,
// AAᵀB, the least-squares solve and a shared subexpression.
func FuzzEnumerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		def := decodeDef(data)
		set, err := EnumerateSymbolic(def)
		if err != nil {
			return
		}
		if set.Len() > MaxAlgorithms || set.Len() < lowerBound(def.Root) {
			t.Fatalf("%d algorithms, limit %d, lower bound %d", set.Len(), MaxAlgorithms, lowerBound(def.Root))
		}
		inst := make(Instance, def.Arity)
		for i := range inst {
			inst[i] = 2 + i
		}
		algs, err := set.Bind(inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range algs {
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestFuzzEnumerateSeeds pins what each seed decodes to: the set size
// it enumerates, or -1 for an error (ErrTooManyAlgorithms for the
// 12-operand product).
func TestFuzzEnumerateSeeds(t *testing.T) {
	for name, want := range map[string]int{"aatb": 5, "lstsq": 4, "shared": 1, "empty": -1, "product12": -1} {
		data := readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzEnumerate", name))
		set, err := EnumerateSymbolic(decodeDef(data))
		switch {
		case name == "product12" && !errors.Is(err, ErrTooManyAlgorithms):
			t.Errorf("%s: error %v, want ErrTooManyAlgorithms", name, err)
		case err != nil && want >= 0:
			t.Errorf("%s: %v", name, err)
		case err == nil && set.Len() != want:
			t.Errorf("%s: %d algorithms, want %d", name, set.Len(), want)
		}
	}
}

// readFuzzSeed decodes a one-value "go test fuzz v1" corpus file.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	if !ok {
		t.Fatalf("%s: not a []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
