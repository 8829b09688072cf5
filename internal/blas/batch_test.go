package blas

// A fused batch plan binds every instance's calls to the serial kernels
// on views into one shared arena: each instance's operands sit at its
// own offset, padded to a common stride, with neighbour instances on
// either side. These tests pin the kernel property that plan rests on:
// a kernel run on one instance of such a slab computes bit for bit what
// it computes on the same instance held in compact matrices of its own,
// writes nothing outside its instance's output, and allocates nothing
// once warm.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// batchSlab is count rows×cols column-major instances laid out at a
// common stride in one backing array. The padding between instances is
// filled too, so a kernel that writes past its instance shows.
type batchSlab struct {
	rows, cols, stride, count int
	data                      []float64
}

// newBatchSlab builds a slab of count rows×cols instances whose stride
// is the instance size plus pad, filled from rng. An instance with no
// rows still has a column stride of one.
func newBatchSlab(rows, cols, pad, count int, rng *xrand.Rand) *batchSlab {
	s := &batchSlab{rows: rows, cols: cols, stride: max(rows, 1)*cols + pad, count: count}
	s.data = make([]float64, s.stride*count)
	for i := range s.data {
		s.data[i] = 2*rng.Float64() - 1
	}
	return s
}

// inst returns instance i as a view whose backing slice runs on to the
// end of the slab, as the plan's operand headers do.
func (s *batchSlab) inst(i int) mat.Dense {
	return mat.Dense{Rows: s.rows, Cols: s.cols, Stride: max(s.rows, 1), Data: s.data[i*s.stride:]}
}

// clone deep-copies the slab.
func (s *batchSlab) clone() *batchSlab {
	c := *s
	c.data = append([]float64(nil), s.data...)
	return &c
}

// forEachInst calls f on a view of every instance of s.
func (s *batchSlab) forEachInst(f func(i int, v *mat.Dense)) {
	for i := 0; i < s.count; i++ {
		v := s.inst(i)
		f(i, &v)
	}
}

// kernelFunc runs one kernel call on one instance's operands, in slab
// order.
type kernelFunc func(ops []*mat.Dense)

// runInSlab runs kernel once per instance on views of instance i of
// every slab, the way a batch plan's steps do.
func runInSlab(slabs []*batchSlab, kernel kernelFunc) {
	ops := make([]*mat.Dense, len(slabs))
	for i := 0; i < slabs[0].count; i++ {
		for j, s := range slabs {
			v := s.inst(i)
			ops[j] = &v
		}
		kernel(ops)
	}
}

// runStandalone returns what the kernel leaves in every slab when each
// instance runs on compact copies of its operands, one instance at a
// time, copied back into clones of the slabs afterwards. The slabs
// themselves are not touched.
func runStandalone(slabs []*batchSlab, kernel kernelFunc) []*batchSlab {
	want := make([]*batchSlab, len(slabs))
	for j, s := range slabs {
		want[j] = s.clone()
	}
	ops := make([]*mat.Dense, len(slabs))
	for i := 0; i < slabs[0].count; i++ {
		for j, s := range slabs {
			v := s.inst(i)
			ops[j] = v.Clone()
		}
		kernel(ops)
		for j := range want {
			v := want[j].inst(i)
			mat.Copy(&v, ops[j])
		}
	}
	return want
}

// equalSlabs reports every slab whose backing array, padding included,
// is not bitwise equal to want's.
func equalSlabs(t *testing.T, label string, want, got []*batchSlab) {
	t.Helper()
	for j := range want {
		for k, w := range want[j].data {
			if math.Float64bits(w) != math.Float64bits(got[j].data[k]) {
				inst, off := k/want[j].stride, k%want[j].stride
				t.Errorf("%s: operand %d instance %d offset %d is %v, standalone run gives %v",
					label, j, inst, off, got[j].data[k], w)
				break
			}
		}
	}
}

// checkSlabMatchesStandalone runs kernel over the slabs in place and
// checks them against the standalone per-instance result.
func checkSlabMatchesStandalone(t *testing.T, label string, slabs []*batchSlab, kernel kernelFunc) {
	t.Helper()
	want := runStandalone(slabs, kernel)
	runInSlab(slabs, kernel)
	equalSlabs(t, label, want, slabs)
}

// dominantDiagonal adds 4 to every diagonal entry of each instance, so
// every triangular solve on it is well-conditioned.
func dominantDiagonal(s *batchSlab) {
	s.forEachInst(func(_ int, v *mat.Dense) {
		for d := 0; d < min(v.Rows, v.Cols); d++ {
			v.Set(d, d, 4+v.At(d, d))
		}
	})
}

// spdInstances overwrites every n×n instance with a random SPD matrix.
func spdInstances(s *batchSlab, rng *xrand.Rand) {
	s.forEachInst(func(_ int, v *mat.Dense) {
		mat.Copy(v, mat.NewSPDRandom(v.Rows, rng))
	})
}

// TestGemmBatchMatchesSequential pins Gemm on the instances of one
// padded slab bitwise equal to Gemm on each instance alone, across
// transposes, padded and tight strides, sizes on both sides of the
// blocking parameters, and the alpha/beta special cases.
func TestGemmBatchMatchesSequential(t *testing.T) {
	cases := []struct {
		m, k, n     int
		alpha, beta float64
		count, pad  int
	}{
		{8, 8, 8, 1, 0, 4, 0},
		{13, 7, 5, 1, 1, 3, 17},
		{24, 16, 8, 1.5, -0.5, 7, 0},
		{64, 64, 64, 1, 0, 3, 3},
		{130, 40, 20, 1, 1, 2, 0}, // m > mc
		{40, 300, 20, 1, 1, 2, 5}, // k > kc
		{8, 8, 8, 0, 0.5, 3, 0},   // alpha == 0 → pure beta scaling
		{8, 0, 8, 1, 2, 3, 5},     // k == 0 → pure beta scaling
	}
	for _, tc := range cases {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				rng := xrand.New(0xba7c4)
				ar, ac := tc.m, tc.k
				if transA {
					ar, ac = tc.k, tc.m
				}
				br, bc := tc.k, tc.n
				if transB {
					br, bc = tc.n, tc.k
				}
				slabs := []*batchSlab{
					newBatchSlab(ar, ac, tc.pad, tc.count, rng),
					newBatchSlab(br, bc, tc.pad, tc.count, rng),
					newBatchSlab(tc.m, tc.n, tc.pad, tc.count, rng),
				}
				label := fmt.Sprintf("gemm %dx%dx%d tA=%v tB=%v", tc.m, tc.k, tc.n, transA, transB)
				checkSlabMatchesStandalone(t, label, slabs, func(op []*mat.Dense) {
					Gemm(transA, transB, tc.alpha, op[0], op[1], tc.beta, op[2])
				})
			}
		}
	}
}

// TestSyrkBatchMatchesSequential pins Syrk and SyrkT on slab instances
// bitwise equal to the standalone calls, both triangles, both
// orientations. The opposite strict triangle stays as it was, because
// the standalone reference copies it back untouched.
func TestSyrkBatchMatchesSequential(t *testing.T) {
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		for _, trans := range []bool{false, true} {
			for _, dims := range [][2]int{{1, 1}, {8, 16}, {33, 7}, {97, 20}, {8, 0}} {
				m, k := dims[0], dims[1]
				rng := xrand.New(0x5f3c)
				ar, ac := m, k
				if trans {
					ar, ac = k, m
				}
				slabs := []*batchSlab{
					newBatchSlab(ar, ac, 5, 3, rng),
					newBatchSlab(m, m, 5, 3, rng),
				}
				label := fmt.Sprintf("syrk uplo=%v trans=%v %dx%d", uplo, trans, m, k)
				checkSlabMatchesStandalone(t, label, slabs, func(op []*mat.Dense) {
					if trans {
						SyrkT(uplo, 1.5, op[0], 0.5, op[1])
					} else {
						Syrk(uplo, 1.5, op[0], 0.5, op[1])
					}
				})
			}
		}
	}
}

// TestSymmBatchMatchesSequential pins Symm on slab instances bitwise
// equal to the standalone calls across triangles and sizes.
func TestSymmBatchMatchesSequential(t *testing.T) {
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		for _, dims := range [][2]int{{1, 1}, {10, 5}, {96, 40}, {130, 20}} {
			m, n := dims[0], dims[1]
			rng := xrand.New(0x577)
			slabs := []*batchSlab{
				newBatchSlab(m, m, 3, 3, rng),
				newBatchSlab(m, n, 3, 3, rng),
				newBatchSlab(m, n, 3, 3, rng),
			}
			label := fmt.Sprintf("symm uplo=%v %dx%d", uplo, m, n)
			checkSlabMatchesStandalone(t, label, slabs, func(op []*mat.Dense) {
				Symm(uplo, 2, op[0], op[1], -1, op[2])
			})
		}
	}
}

// TestTrsmBatchMatchesSequential pins Trsm on slab instances bitwise
// equal to the standalone calls across triangles, transposes, alphas,
// and sizes on both sides of the blocked path.
func TestTrsmBatchMatchesSequential(t *testing.T) {
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		for _, transL := range []bool{false, true} {
			for _, alpha := range []float64{1, 0.5} {
				for _, dims := range [][2]int{{1, 1}, {8, 5}, {64, 16}, {65, 16}, {100, 7}} {
					m, n := dims[0], dims[1]
					rng := xrand.New(0x7e5)
					l := newBatchSlab(m, m, 9, 3, rng)
					dominantDiagonal(l)
					slabs := []*batchSlab{l, newBatchSlab(m, n, 9, 3, rng)}
					label := fmt.Sprintf("trsm uplo=%v transL=%v alpha=%v %dx%d", uplo, transL, alpha, m, n)
					checkSlabMatchesStandalone(t, label, slabs, func(op []*mat.Dense) {
						Trsm(uplo, transL, alpha, op[0], op[1])
					})
				}
			}
		}
	}
}

// TestPotrfBatchMatchesSequential pins Potrf on slab instances bitwise
// equal to the standalone factorisations, and checks that an indefinite
// instance fails on its own: its neighbours still factor exactly as
// they would alone.
func TestPotrfBatchMatchesSequential(t *testing.T) {
	potrf := func(t *testing.T, failing int) kernelFunc {
		i := 0
		return func(op []*mat.Dense) {
			err := Potrf(op[0])
			if (err != nil) != (i%3 == failing) {
				t.Errorf("instance %d: Potrf error %v", i%3, err)
			}
			if err != nil && !strings.Contains(err.Error(), "not positive definite") {
				t.Errorf("instance %d: Potrf error %q does not say why", i%3, err)
			}
			i++
		}
	}
	for _, n := range []int{1, 8, 64, 65, 100} {
		rng := xrand.New(0x90d)
		a := newBatchSlab(n, n, 7, 3, rng)
		spdInstances(a, rng)
		checkSlabMatchesStandalone(t, fmt.Sprintf("potrf n=%d", n), []*batchSlab{a}, potrf(t, -1))
	}

	// Instance 1 is indefinite.
	rng := xrand.New(0xbad)
	a := newBatchSlab(8, 8, 0, 3, rng)
	spdInstances(a, rng)
	bad := a.inst(1)
	bad.Set(0, 0, -1)
	checkSlabMatchesStandalone(t, "potrf indefinite", []*batchSlab{a}, potrf(t, 1))
}

// TestAddSymTri2FullBatch pins AddSym followed by Tri2Full on slab
// instances against the standalone calls.
func TestAddSymTri2FullBatch(t *testing.T) {
	for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
		rng := xrand.New(0xadd)
		slabs := []*batchSlab{newBatchSlab(17, 17, 1, 4, rng), newBatchSlab(17, 17, 1, 4, rng)}
		checkSlabMatchesStandalone(t, fmt.Sprintf("addsym+tri2full uplo=%v", uplo), slabs, func(op []*mat.Dense) {
			AddSym(uplo, op[0], op[1])
			Tri2Full(uplo, op[0])
		})
	}
}

// slabKernel is one kernel call over slab instances, for the tests that
// sweep every kernel.
type slabKernel struct {
	name   string
	slabs  func(rng *xrand.Rand) []*batchSlab
	kernel kernelFunc
}

// slabKernels returns every kernel a plan step binds, over count
// instances at the given dimension (above parThreshold when big, so the
// kernels' own par.For fan-out runs at caps above one).
func slabKernels(t *testing.T, d, count int) []slabKernel {
	sq := func(rng *xrand.Rand) *batchSlab { return newBatchSlab(d, d, 3, count, rng) }
	rect := func(rng *xrand.Rand) *batchSlab { return newBatchSlab(d, d/2+1, 3, count, rng) }
	return []slabKernel{
		{"gemm", func(rng *xrand.Rand) []*batchSlab {
			return []*batchSlab{sq(rng), rect(rng), rect(rng)}
		}, func(op []*mat.Dense) { Gemm(false, false, 1.5, op[0], op[1], -0.5, op[2]) }},
		{"syrk", func(rng *xrand.Rand) []*batchSlab {
			return []*batchSlab{sq(rng), sq(rng)}
		}, func(op []*mat.Dense) { Syrk(mat.Lower, 1.5, op[0], 0.5, op[1]) }},
		{"syrkT", func(rng *xrand.Rand) []*batchSlab {
			return []*batchSlab{sq(rng), sq(rng)}
		}, func(op []*mat.Dense) { SyrkT(mat.Upper, 1.5, op[0], 0.5, op[1]) }},
		{"symm", func(rng *xrand.Rand) []*batchSlab {
			return []*batchSlab{sq(rng), rect(rng), rect(rng)}
		}, func(op []*mat.Dense) { Symm(mat.Lower, 2, op[0], op[1], -1, op[2]) }},
		{"trsm", func(rng *xrand.Rand) []*batchSlab {
			l := sq(rng)
			dominantDiagonal(l)
			return []*batchSlab{l, rect(rng)}
		}, func(op []*mat.Dense) { Trsm(mat.Lower, false, 0.5, op[0], op[1]) }},
		{"potrf", func(rng *xrand.Rand) []*batchSlab {
			a := sq(rng)
			spdInstances(a, rng)
			return []*batchSlab{a}
		}, func(op []*mat.Dense) {
			if err := Potrf(op[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"addsym+tri2full", func(rng *xrand.Rand) []*batchSlab {
			return []*batchSlab{sq(rng), sq(rng)}
		}, func(op []*mat.Dense) {
			AddSym(mat.Lower, op[0], op[1])
			Tri2Full(mat.Lower, op[0])
		}},
	}
}

// TestBatchDriversParallelMatchSequential pins every kernel a plan step
// binds, run over slab instances at worker caps 2 and 4 with shapes big
// enough that the kernels fan out, bitwise equal to the standalone
// per-instance result at cap 1; two runs at one cap agree.
func TestBatchDriversParallelMatchSequential(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	for _, k := range slabKernels(t, 80, 3) {
		SetMaxWorkers(1)
		want := runStandalone(k.slabs(xrand.New(0x9a11)), k.kernel)
		for _, w := range []int{1, 2, 4} {
			SetMaxWorkers(w)
			for run := 0; run < 2; run++ {
				got := k.slabs(xrand.New(0x9a11))
				runInSlab(got, k.kernel)
				equalSlabs(t, fmt.Sprintf("%s workers=%d run %d", k.name, w, run), want, got)
			}
		}
	}
}

// TestGemmBatchFusedZeroAllocs asserts that a warm pass of Gemm over
// the instances of one slab, the inner loop of a fused plan step,
// performs no heap allocations at worker caps 1 and 2.
func TestGemmBatchFusedZeroAllocs(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	rng := xrand.New(0xa110c)
	const m, k, n, count = 24, 16, 8, 16
	a := newBatchSlab(m, k, 0, count, rng)
	b := newBatchSlab(k, n, 0, count, rng)
	c := newBatchSlab(m, n, 0, count, rng)
	pass := func() {
		for i := 0; i < count; i++ {
			av, bv, cv := a.inst(i), b.inst(i), c.inst(i)
			Gemm(false, false, 1, &av, &bv, 0, &cv)
		}
	}
	for _, w := range []int{1, 2} {
		SetMaxWorkers(w)
		pass() // warm the packing buffers
		if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
			t.Errorf("workers=%d: a Gemm pass over the slab allocates %v times, want 0", w, allocs)
		}
	}
}

// TestBatchDriversWarmZeroAllocs pins that every kernel a plan step
// binds, warm, allocates nothing on a pass over slab instances at
// worker caps 1 and 2, also right after two garbage collections: the
// packing buffers sit on free lists no collection empties.
func TestBatchDriversWarmZeroAllocs(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	const count = 16
	for _, k := range slabKernels(t, 24, count) {
		slabs := k.slabs(xrand.New(0xa110c2))
		// Potrf factors in place: every pass restores its input first.
		orig := slabs[0].clone()
		ops := make([]*mat.Dense, len(slabs))
		views := make([]mat.Dense, len(slabs))
		pass := func() {
			if k.name == "potrf" {
				copy(slabs[0].data, orig.data)
			}
			for i := 0; i < count; i++ {
				for j, s := range slabs {
					views[j] = s.inst(i)
					ops[j] = &views[j]
				}
				k.kernel(ops)
			}
		}
		for _, w := range []int{1, 2} {
			SetMaxWorkers(w)
			pass() // warm the free lists
			allocs := testing.AllocsPerRun(10, func() {
				runtime.GC()
				runtime.GC()
				pass()
			})
			if allocs != 0 {
				t.Errorf("%s workers=%d: %v allocations per pass after two collections, want 0", k.name, w, allocs)
			}
		}
	}
}
