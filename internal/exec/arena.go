package exec

// This file implements the plan slab: one reusable buffer, and one
// reusable plan, for plans that are compiled, run and released one at a
// time, such as the engine's computed queries under its execution lock.
// A slab hands its buffer out unzeroed: every operand of a plan is
// filled, copied in or written by a kernel before any kernel reads it,
// so stale contents of an earlier plan never reach a result. Builds
// tagged arenapoison NaN-fill every plan arena, slab or not, at every
// hand-out (arena_poison.go), which turns any read-before-write into
// NaNs the equivalence tests reject.
//
// A slab is held strongly by its owner and grows to the largest plan
// compiled into it, so after its first requests a serving engine
// compiles its plans with neither an allocation nor a zeroing pass.
// Plans compiled without a slab allocate their own arena, which the
// collector frees with the plan.

// MaxRetainedArenaBytes bounds the bytes a Slab keeps (32 MiB). A plan
// over it gets an arena of its own, which the slab does not keep.
const MaxRetainedArenaBytes = 32 << 20

// Slab is a reusable plan arena. A plan compiled into it with Compile
// borrows its buffer (operand arena plus SPD fill scratch) until the
// plan's Release, and the slab cannot be compiled into again before
// then. The zero value is an empty slab. A Slab is not safe for
// concurrent use: its owner serialises compile, run and release.
type Slab struct {
	buf  []float64
	lent bool
	plan Plan
}

// Compile compiles the plan of one instance laid out as lay into the
// slab, binding the serial kernels. The plan is the slab's own: every
// Compile returns the same *Plan, recompiled over the new layout with
// the operand headers and steps of the last one reused. It panics if a
// plan compiled into the slab before has not been released.
func (s *Slab) Compile(lay *Layout) *Plan {
	s.plan.compile(lay, s)
	return &s.plan
}

// lend returns a buffer of n float64s, cut from the slab's buffer,
// grown first if it is shorter; past MaxRetainedArenaBytes, a new one
// the slab does not keep. Its contents are unspecified.
func (s *Slab) lend(n int) []float64 {
	if s.lent {
		panic("exec: slab compiled into while a plan still holds it")
	}
	s.lent = true
	if n*8 > MaxRetainedArenaBytes {
		return poisonArena(make([]float64, n))
	}
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return poisonArena(s.buf[:n])
}

// Lent reports whether a plan compiled into the slab has not been
// released yet.
func (s *Slab) Lent() bool { return s.lent }

// Cap returns the length in float64s of the buffer the slab keeps.
func (s *Slab) Cap() int { return cap(s.buf) }
