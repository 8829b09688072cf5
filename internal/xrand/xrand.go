// Package xrand provides small deterministic random-number utilities used
// throughout the experiment drivers.
//
// All experiments in this repository are seeded so that every table and
// figure regenerates bit-identically. The package wraps a SplitMix64
// generator (Steele et al., "Fast splittable pseudorandom number
// generators") which is tiny, fast, and makes derived sub-streams cheap:
// each experiment derives an independent stream from a master seed and a
// label, so adding a new experiment never perturbs existing ones.
package xrand

import (
	"math"
	"math/bits"

	"lamb/internal/cpu"
)

// haveAVX2FMA gates the four-lane FillSigned (read once at startup from
// lamb/internal/cpu); tests flip it to run the scalar loop.
var haveAVX2FMA = cpu.HasAVX2FMA

// Rand is a deterministic SplitMix64 pseudorandom generator.
// The zero value is a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// NewLabeled returns a generator whose stream is derived from seed and a
// textual label. Distinct labels yield independent streams.
func NewLabeled(seed uint64, label string) *Rand {
	h := seed
	for _, b := range []byte(label) {
		h ^= uint64(b)
		h *= 0x100000001b3 // FNV-1a prime
	}
	return &Rand{state: mix(h)}
}

// Split derives a new independent generator from r, advancing r once.
func (r *Rand) Split() *Rand { return &Rand{state: mix(r.Uint64())} }

// Uint64 returns the next 64 pseudorandom bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// FillSigned sets dst[i] to 2*r.Float64() - 1, a uniform value in
// [-1, 1), for i in order: the values and the stream position len(dst)
// successive draws would give, bit for bit. The state after i draws is
// s + i·γ, so every element can be computed independently: on amd64
// with AVX2 and FMA, four SplitMix64 lanes fill the longest prefix
// whose length is a multiple of 4 (fill_amd64.s), and the scalar loop
// below, the portable path and the kernel's oracle, fills the rest.
// One call over a long slice is cheaper than many over short ones.
func (r *Rand) FillSigned(dst []float64) {
	s := r.state
	n := fillSignedVec(dst, s)
	s += uint64(n) * 0x9e3779b97f4a7c15
	for i := n; i < len(dst); i++ {
		s += 0x9e3779b97f4a7c15
		// The 53-bit value converts exactly through int64, which is
		// one instruction where uint64 takes several.
		dst[i] = 2*(float64(int64(mix(s)>>11))/(1<<53)) - 1
	}
	r.state = s
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Hash64 deterministically mixes a sequence of integers into a 64-bit
// hash. It is used for reproducible pseudo-noise keyed on kernel shapes.
func Hash64(xs ...uint64) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, x := range xs {
		h ^= mix(x)
		h = bits.RotateLeft64(h, 27) * 0x9e3779b97f4a7c15
	}
	return mix(h)
}

// UnitFromHash maps a 64-bit hash to a float64 in [0, 1).
func UnitFromHash(h uint64) float64 { return float64(h>>11) / (1 << 53) }
