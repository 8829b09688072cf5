package blas

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// tol returns an absolute tolerance scaled with the inner dimension:
// entries are sums of k products of values in [-1, 1).
func tol(k int) float64 { return 1e-13 * float64(k+1) }

func TestGemmMatchesNaive(t *testing.T) {
	rng := xrand.New(1)
	shapes := [][3]int{
		{1, 1, 1}, {1, 5, 3}, {4, 4, 4}, {5, 1, 9},
		{3, 7, 2}, {8, 8, 8}, {13, 17, 11}, {64, 64, 64},
		{65, 67, 66}, {100, 3, 100}, {3, 100, 100}, {100, 100, 3},
		{129, 50, 257}, {31, 33, 300},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				ar, ac := m, k
				if transA {
					ar, ac = k, m
				}
				br, bc := k, n
				if transB {
					br, bc = n, k
				}
				a := mat.NewRandom(ar, ac, rng)
				b := mat.NewRandom(br, bc, rng)
				c0 := mat.NewRandom(m, n, rng)
				got := c0.Clone()
				want := c0.Clone()
				Gemm(transA, transB, 1.3, a, b, 0.7, got)
				NaiveGemm(transA, transB, 1.3, a, b, 0.7, want)
				if d := mat.MaxAbsDiff(got, want); d > tol(k) {
					t.Fatalf("gemm(%v,%v) %dx%dx%d: max diff %g", transA, transB, m, n, k, d)
				}
			}
		}
	}
}

func TestGemmBetaZeroOverwritesNaN(t *testing.T) {
	rng := xrand.New(2)
	a := mat.NewRandom(6, 5, rng)
	b := mat.NewRandom(5, 7, rng)
	c := mat.New(6, 7)
	c.Fill(math.NaN())
	Gemm(false, false, 1, a, b, 0, c)
	want := mat.New(6, 7)
	NaiveGemm(false, false, 1, a, b, 0, want)
	if d := mat.MaxAbsDiff(c, want); d > tol(5) {
		t.Fatalf("beta=0 did not overwrite NaN: diff %g", d)
	}
}

func TestGemmAlphaZeroScalesOnly(t *testing.T) {
	rng := xrand.New(3)
	a := mat.NewRandom(4, 4, rng)
	b := mat.NewRandom(4, 4, rng)
	c := mat.NewRandom(4, 4, rng)
	want := c.Clone()
	scaleMatrix(want, 0.5)
	Gemm(false, false, 0, a, b, 0.5, c)
	if !mat.EqualApprox(c, want, 1e-15) {
		t.Fatal("alpha=0 should only scale C")
	}
}

func TestGemmOnViews(t *testing.T) {
	rng := xrand.New(4)
	big := mat.NewRandom(40, 40, rng)
	a := big.Slice(3, 20, 5, 17)  // 17x12
	b := big.Slice(10, 22, 1, 20) // 12x19
	c := mat.New(17, 19)
	want := mat.New(17, 19)
	Gemm(false, false, 1, a, b, 0, c)
	NaiveGemm(false, false, 1, a, b, 0, want)
	if d := mat.MaxAbsDiff(c, want); d > tol(12) {
		t.Fatalf("gemm on views: diff %g", d)
	}
}

func TestGemmDimensionMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { Gemm(false, false, 1, mat.New(2, 3), mat.New(4, 5), 0, mat.New(2, 5)) },
		func() { Gemm(false, false, 1, mat.New(2, 3), mat.New(3, 5), 0, mat.New(2, 4)) },
		func() { Gemm(false, false, 1, mat.New(2, 3), mat.New(3, 5), 0, mat.New(3, 5)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGemmEmptyIsNoop(t *testing.T) {
	c := mat.New(0, 0)
	Gemm(false, false, 1, mat.New(0, 3), mat.New(3, 0), 0, c) // must not panic
	a := mat.NewRandom(2, 0, xrand.New(5))
	b := mat.NewRandom(0, 2, xrand.New(6))
	c2 := mat.NewRandom(2, 2, xrand.New(7))
	want := c2.Clone()
	scaleMatrix(want, 0.5)
	Gemm(false, false, 1, a, b, 0.5, c2) // k = 0: C := beta C
	if !mat.EqualApprox(c2, want, 1e-15) {
		t.Fatal("k=0 gemm should scale C by beta")
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	rng := xrand.New(8)
	a := mat.NewRandom(150, 130, rng)
	b := mat.NewRandom(130, 170, rng)
	serial := mat.New(150, 170)
	parallel := mat.New(150, 170)
	old := SetMaxWorkers(1)
	Gemm(false, false, 1, a, b, 0, serial)
	SetMaxWorkers(4)
	Gemm(false, false, 1, a, b, 0, parallel)
	SetMaxWorkers(old)
	if d := mat.MaxAbsDiff(serial, parallel); d > tol(130) {
		t.Fatalf("parallel differs from serial: %g", d)
	}
}

func TestGemmParallelRowSplit(t *testing.T) {
	// Tall-skinny C forces the row-stripe parallel path.
	rng := xrand.New(9)
	a := mat.NewRandom(300, 80, rng)
	b := mat.NewRandom(80, 6, rng)
	got := mat.New(300, 6)
	want := mat.New(300, 6)
	old := SetMaxWorkers(4)
	Gemm(false, false, 1, a, b, 0, got)
	SetMaxWorkers(old)
	NaiveGemm(false, false, 1, a, b, 0, want)
	if d := mat.MaxAbsDiff(got, want); d > tol(80) {
		t.Fatalf("row-split parallel gemm wrong: %g", d)
	}
}

func TestSyrkMatchesNaive(t *testing.T) {
	rng := xrand.New(10)
	shapes := [][2]int{{1, 1}, {3, 5}, {8, 8}, {17, 5}, {96, 30}, {97, 10}, {150, 40}, {200, 3}}
	for _, sh := range shapes {
		m, k := sh[0], sh[1]
		for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
			a := mat.NewRandom(m, k, rng)
			c0 := mat.NewRandom(m, m, rng)
			got := c0.Clone()
			want := c0.Clone()
			Syrk(uplo, 1.1, a, 0.4, got)
			NaiveSyrk(uplo, 1.1, a, 0.4, want)
			if d := mat.MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("syrk(%v) m=%d k=%d: diff %g", uplo, m, k, d)
			}
		}
	}
}

func TestSyrkDoesNotTouchOppositeTriangle(t *testing.T) {
	rng := xrand.New(11)
	a := mat.NewRandom(50, 20, rng)
	c := mat.New(50, 50)
	c.Fill(123)
	Syrk(mat.Lower, 1, a, 0, c)
	for j := 0; j < 50; j++ {
		for i := 0; i < j; i++ {
			if c.At(i, j) != 123 {
				t.Fatalf("upper element (%d,%d) modified by Lower syrk", i, j)
			}
		}
	}
	c.Fill(123)
	Syrk(mat.Upper, 1, a, 0, c)
	for j := 0; j < 50; j++ {
		for i := j + 1; i < 50; i++ {
			if c.At(i, j) != 123 {
				t.Fatalf("lower element (%d,%d) modified by Upper syrk", i, j)
			}
		}
	}
}

func TestSyrkThenMirrorIsSymmetricProduct(t *testing.T) {
	rng := xrand.New(12)
	a := mat.NewRandom(60, 25, rng)
	c := mat.New(60, 60)
	Syrk(mat.Lower, 1, a, 0, c)
	Tri2Full(mat.Lower, c)
	want := mat.New(60, 60)
	NaiveGemm(false, true, 1, a, a, 0, want)
	if d := mat.MaxAbsDiff(c, want); d > tol(25) {
		t.Fatalf("syrk+tri2full != A·Aᵀ: diff %g", d)
	}
	if !c.IsSymmetric(tol(25)) {
		t.Fatal("result not symmetric")
	}
}

func TestSyrkAlphaZero(t *testing.T) {
	c := mat.New(5, 5)
	c.Fill(2)
	Syrk(mat.Lower, 0, mat.New(5, 3), 0.5, c)
	if c.At(3, 1) != 1 {
		t.Fatal("alpha=0 syrk should scale triangle by beta")
	}
	if c.At(1, 3) != 2 {
		t.Fatal("alpha=0 syrk touched opposite triangle")
	}
}

func TestSyrkMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("syrk with wrong C did not panic")
		}
	}()
	Syrk(mat.Lower, 1, mat.New(4, 3), 0, mat.New(5, 5))
}

func TestSymmMatchesNaive(t *testing.T) {
	rng := xrand.New(13)
	shapes := [][2]int{{1, 1}, {5, 3}, {8, 8}, {17, 40}, {96, 10}, {100, 100}, {150, 7}, {200, 20}}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
			// Only the uplo triangle of A may be referenced: poison the rest.
			a := mat.NewSymmetricRandom(m, rng)
			poison := a.Clone()
			if uplo == mat.Lower {
				mat.ZeroTriangle(poison, mat.Lower)
				for j := 0; j < m; j++ {
					for i := 0; i < j; i++ {
						poison.Set(i, j, math.NaN())
					}
				}
			} else {
				for j := 0; j < m; j++ {
					for i := j + 1; i < m; i++ {
						poison.Set(i, j, math.NaN())
					}
				}
			}
			b := mat.NewRandom(m, n, rng)
			c0 := mat.NewRandom(m, n, rng)
			got := c0.Clone()
			want := c0.Clone()
			Symm(uplo, 0.9, poison, b, 0.3, got)
			NaiveSymm(uplo, 0.9, a, b, 0.3, want)
			if d := mat.MaxAbsDiff(got, want); d > tol(m) {
				t.Fatalf("symm(%v) m=%d n=%d: diff %g (NaN poison leaked?)", uplo, m, n, d)
			}
		}
	}
}

func TestSymmEqualsGemmOnFullSymmetric(t *testing.T) {
	rng := xrand.New(14)
	a := mat.NewSymmetricRandom(70, rng)
	b := mat.NewRandom(70, 30, rng)
	viaSymm := mat.New(70, 30)
	viaGemm := mat.New(70, 30)
	Symm(mat.Lower, 1, a, b, 0, viaSymm)
	Gemm(false, false, 1, a, b, 0, viaGemm)
	if d := mat.MaxAbsDiff(viaSymm, viaGemm); d > tol(70) {
		t.Fatalf("symm != gemm on symmetric A: diff %g", d)
	}
}

func TestSymmMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { Symm(mat.Lower, 1, mat.New(3, 4), mat.New(3, 2), 0, mat.New(3, 2)) },
		func() { Symm(mat.Lower, 1, mat.New(3, 3), mat.New(4, 2), 0, mat.New(3, 2)) },
		func() { Symm(mat.Lower, 1, mat.New(3, 3), mat.New(3, 2), 0, mat.New(3, 3)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGemmAssociativityProperty(t *testing.T) {
	// (AB)C == A(BC) in exact arithmetic; check within tolerance. This is
	// the algebraic identity underlying the matrix chain's 6 algorithms.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		d0 := rng.IntRange(1, 24)
		d1 := rng.IntRange(1, 24)
		d2 := rng.IntRange(1, 24)
		d3 := rng.IntRange(1, 24)
		a := mat.NewRandom(d0, d1, rng)
		b := mat.NewRandom(d1, d2, rng)
		c := mat.NewRandom(d2, d3, rng)
		ab := mat.New(d0, d2)
		Gemm(false, false, 1, a, b, 0, ab)
		left := mat.New(d0, d3)
		Gemm(false, false, 1, ab, c, 0, left)
		bc := mat.New(d1, d3)
		Gemm(false, false, 1, b, c, 0, bc)
		right := mat.New(d0, d3)
		Gemm(false, false, 1, a, bc, 0, right)
		return mat.MaxAbsDiff(left, right) <= 1e-11*float64(d1*d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmRandomShapesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		m := rng.IntRange(1, 70)
		n := rng.IntRange(1, 70)
		k := rng.IntRange(1, 70)
		transA := rng.Intn(2) == 1
		transB := rng.Intn(2) == 1
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		a := mat.NewRandom(ar, ac, rng)
		b := mat.NewRandom(br, bc, rng)
		got := mat.NewRandom(m, n, rng)
		want := got.Clone()
		alpha := 2*rng.Float64() - 1
		beta := 2*rng.Float64() - 1
		Gemm(transA, transB, alpha, a, b, beta, got)
		NaiveGemm(transA, transB, alpha, a, b, beta, want)
		return mat.MaxAbsDiff(got, want) <= tol(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSyrkRandomShapesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		m := rng.IntRange(1, 120)
		k := rng.IntRange(1, 60)
		uplo := mat.Lower
		if rng.Intn(2) == 1 {
			uplo = mat.Upper
		}
		a := mat.NewRandom(m, k, rng)
		got := mat.NewRandom(m, m, rng)
		want := got.Clone()
		Syrk(uplo, 1, a, 0.5, got)
		NaiveSyrk(uplo, 1, a, 0.5, want)
		return mat.MaxAbsDiff(got, want) <= tol(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSetMaxWorkers(t *testing.T) {
	old := SetMaxWorkers(3)
	if got := SetMaxWorkers(old); got != 3 {
		t.Fatalf("SetMaxWorkers round-trip = %d, want 3", got)
	}
	SetMaxWorkers(0)
	if workers() < 1 {
		t.Fatal("workers() must be at least 1")
	}
}

// TestPackBuffersSizedToCall pins that the serial GEMM's pack buffers
// are sized to the call: from empty free lists, a warm 64×64×64 Gemm
// leaves no idle buffer longer than that call packs (64·64 floats of A
// and of B), where full blocks would be mc·kc and kc·nc; and a
// following 512³ call, which must grow them, still matches the
// reference serially and in parallel.
func TestPackBuffersSizedToCall(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	for _, f := range []*freeList[[]float64]{bufAs, bufBs} {
		f.mu.Lock()
		f.idle = f.idle[:0]
		f.mu.Unlock()
	}
	rng := xrand.New(0x9ac4)
	a, b, c := mat.NewRandom(64, 64, rng), mat.NewRandom(64, 64, rng), mat.New(64, 64)
	for range 2 {
		Gemm(false, false, 1, a, b, 0, c)
	}
	for _, l := range []struct {
		name string
		f    *freeList[[]float64]
	}{{"A", bufAs}, {"B", bufBs}} {
		l.f.mu.Lock()
		idle := slices.Clone(l.f.idle)
		l.f.mu.Unlock()
		if len(idle) == 0 {
			t.Errorf("no idle pack buffer of %s after the call", l.name)
		}
		for _, buf := range idle {
			if cap(buf) > 64*64 {
				t.Errorf("idle pack buffer of %s holds %d floats after a 64³ call, want at most %d", l.name, cap(buf), 64*64)
			}
		}
	}
	a, b = mat.NewRandom(512, 512, rng), mat.NewRandom(512, 512, rng)
	want := mat.New(512, 512)
	NaiveGemm(false, false, 1, a, b, 0, want)
	for _, workers := range []int{1, 2} {
		SetMaxWorkers(workers)
		got := mat.New(512, 512)
		Gemm(false, false, 1, a, b, 0, got)
		if d := mat.MaxAbsDiff(got, want); d > tol(512) {
			t.Errorf("workers=%d: 512³ Gemm after a 64³ one differs from the reference by %g", workers, d)
		}
	}
}
