package ir

import (
	"fmt"
	"math/bits"
	"strconv"

	"lamb/internal/kernels"
)

// Instance assigns concrete sizes to an expression's dimensions
// (d0, d1, ... in the paper's notation).
type Instance []int

// String renders the instance as "(d0,d1,...)". It keys the outcome
// store and orders its snapshots, so it formats into a stack buffer and
// allocates only the result.
func (in Instance) String() string {
	var buf [64]byte
	b := append(buf[:0], '(')
	for i, d := range in {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return string(append(b, ')'))
}

// keyDims is how many dimensions a Key holds inline: the arity of the
// largest registered expression, the 9-term chain.
const keyDims = 10

// Key is an instance as a comparable value, for map keys: two keys are
// equal exactly when their instances are. An instance of up to keyDims
// dimensions that each fit in an int32 is held inline, so building its
// key allocates nothing; any other is held as its String form. The
// inline form keeps the engine's keys that embed a Key within the 128
// bytes a Go map stores in place rather than allocating per insert.
type Key struct {
	n    int32
	dims [keyDims]int32
	long string
}

// Key returns the instance's comparable key.
func (in Instance) Key() Key {
	k := Key{n: int32(len(in))}
	for i, d := range in {
		if i == keyDims || d != int(int32(d)) {
			return Key{long: in.String()}
		}
		k.dims[i] = int32(d)
	}
	return k
}

// Octave returns d's power-of-two octave, ⌊log2 max(d,1)⌋. Instances
// whose dimensions share their octaves differ by less than 2× in every
// dimension: the router's shard and lamb loadtest -batch-mix both
// group queries by it.
func Octave(d int) int { return bits.Len(uint(max(d, 1))) - 1 }

// Octaves returns the key of the instance's per-dimension octaves.
func (in Instance) Octaves() Key {
	var buf [keyDims]int
	oct := Instance(buf[:0])
	for _, d := range in {
		oct = append(oct, Octave(d))
	}
	return oct.Key()
}

// Clone returns an independent copy of the instance.
func (in Instance) Clone() Instance {
	out := make(Instance, len(in))
	copy(out, in)
	return out
}

// Shape is the dimensions of one operand.
type Shape struct {
	Rows, Cols int
}

// Algorithm is one mathematically equivalent evaluation of an expression
// for a concrete instance: an ordered sequence of kernel calls plus the
// shapes of every operand involved.
type Algorithm struct {
	// Index is the paper's 1-based algorithm number.
	Index int
	// Name describes the call sequence, e.g. "M1:=A·B; M2:=M1·C; X:=M2·D".
	Name string
	// Calls is the kernel sequence, executed in order.
	Calls []kernels.Call
	// Shapes maps every operand ID (inputs, temporaries, output) to its
	// shape.
	Shapes map[string]Shape
	// Inputs lists the expression's input operand IDs.
	Inputs []string
	// SPDInputs lists the inputs that must be symmetric positive
	// definite (e.g. the regulariser of the least-squares expression);
	// executors materialise these accordingly.
	SPDInputs []string
	// Output is the ID of the final result.
	Output string
}

// Flops returns the algorithm's total FLOP count — the discriminant the
// paper evaluates.
func (a *Algorithm) Flops() float64 {
	var s float64
	for _, c := range a.Calls {
		s += c.Flops()
	}
	return s
}

// Validate checks internal consistency: every call validates, every
// operand mentioned has a shape, and call dimensions agree with operand
// shapes.
func (a *Algorithm) Validate() error {
	if len(a.Calls) == 0 {
		return fmt.Errorf("ir: algorithm %q has no calls", a.Name)
	}
	for i, c := range a.Calls {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("ir: algorithm %q call %d: %w", a.Name, i, err)
		}
		ids := append([]string{c.Out}, c.In...)
		for _, id := range ids {
			if _, ok := a.Shapes[id]; !ok {
				return fmt.Errorf("ir: algorithm %q call %d references unknown operand %q", a.Name, i, id)
			}
		}
		out := a.Shapes[c.Out]
		if out.Rows != c.M || out.Cols != c.N {
			return fmt.Errorf("ir: algorithm %q call %d output %q is %dx%d, call writes %dx%d",
				a.Name, i, c.Out, out.Rows, out.Cols, c.M, c.N)
		}
	}
	if _, ok := a.Shapes[a.Output]; !ok {
		return fmt.Errorf("ir: algorithm %q output %q has no shape", a.Name, a.Output)
	}
	return nil
}
