package ir

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// randomInstance draws an instance of 0 to keyDims+4 dimensions from a
// small value range, so equal dimensions, equal prefixes and the spill
// past the inline array all come up often.
func randomInstance(rng *rand.Rand) Instance {
	in := make(Instance, rng.Intn(keyDims+5))
	for i := range in {
		in[i] = rng.Intn(4)
	}
	return in
}

// TestKeyEqualityMatchesInstances checks that two keys are equal exactly
// when their instances are, over fixed-seed random pairs and the cases
// a fixed int32 array plus a count could get wrong.
func TestKeyEqualityMatchesInstances(t *testing.T) {
	check := func(a, b Instance) {
		t.Helper()
		if got, want := a.Key() == b.Key(), slices.Equal(a, b); got != want {
			t.Fatalf("%v.Key() == %v.Key() is %v, instances equal %v", a, b, got, want)
		}
	}
	rng := rand.New(rand.NewSource(0x4b6579))
	for range 20000 {
		a := randomInstance(rng)
		check(a, randomInstance(rng))
		b := a.Clone()
		check(a, b)
		if len(b) > 0 {
			b[rng.Intn(len(b))]++
			check(a, b)
		}
	}
	long := make(Instance, keyDims+3)
	for i := range long {
		long[i] = i + 1
	}
	for n := 0; n <= len(long); n++ {
		// Equal prefixes of different length, zero-padded or not.
		check(long[:n], long)
		check(append(long[:n:n], 0), long[:n])
	}
	for i := keyDims; i < len(long); i++ {
		// Differences only past the inline array.
		b := long.Clone()
		b[i] = -b[i]
		check(long, b)
	}
	check(long, long.Clone())
	check(nil, Instance{})
	for _, d := range []int{math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1, 1 << 32, -1 << 32, math.MaxInt, math.MinInt} {
		// Dimensions past int32, which the inline array cannot hold.
		check(Instance{7, d}, Instance{7, int(int32(d))})
		check(Instance{7, d}, Instance{7, d})
		check(Instance{7, d}, Instance{7, d + 1})
	}
}

// TestOctaveMatchesLog2Rule checks Octave against ⌊log2 d⌋ written
// out directly, with every d below 1 in octave 0: the fuse buckets and
// the router's shards must not move.
func TestOctaveMatchesLog2Rule(t *testing.T) {
	oracle := func(d int) int {
		if d < 1 {
			return 0
		}
		return bits.Len(uint(d)) - 1
	}
	ds := []int{math.MinInt, -1 << 40, -7, -1, 0, 1, 2, 3, math.MaxInt - 1, math.MaxInt}
	for k := 1; k < 63; k++ {
		ds = append(ds, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, d := range ds {
		if got, want := Octave(d), oracle(d); got != want {
			t.Errorf("Octave(%d) = %d, want %d", d, got, want)
		}
	}
	if got := Octave(math.MaxInt); got != 62 {
		t.Errorf("Octave(MaxInt) = %d, want 62", got)
	}
}

// TestOctavesKeysTheOctaveInstance checks that an instance's octave key
// is the key of its per-dimension octaves, below and past the inline
// array.
func TestOctavesKeysTheOctaveInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6f6374))
	for range 2000 {
		in := randomInstance(rng)
		oct := make(Instance, len(in))
		for i := range in {
			in[i] = rng.Intn(1<<20) - 8
			oct[i] = Octave(in[i])
		}
		if in.Octaves() != oct.Key() {
			t.Fatalf("%v.Octaves() is not the key of %v", in, oct)
		}
	}
	if (Instance{40, 50, 60}).Octaves() != (Instance{32, 63, 33}).Octaves() {
		t.Error("instances of one octave have different octave keys")
	}
	if (Instance{40, 50, 60}).Octaves() == (Instance{40, 50, 64}).Octaves() {
		t.Error("instances of different octaves share an octave key")
	}
}

// TestKeyZeroAllocs checks that keying an instance within the inline
// array allocates nothing.
func TestKeyZeroAllocs(t *testing.T) {
	in := Instance{10, 200, 3000, 40000, 5, 6, 7, 8, 9, 10}
	var k Key
	if n := testing.AllocsPerRun(100, func() { k = in.Key() }); n != 0 {
		t.Errorf("Key allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { k = in.Octaves() }); n != 0 {
		t.Errorf("Octaves allocates %v times", n)
	}
	_ = k
}
