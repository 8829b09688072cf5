package mat

import (
	"fmt"
	"math"
	"testing"

	"lamb/internal/xrand"
)

// fillSPDNaive is the element-at-a-time Gram product FillSPD blocks:
// the oracle its output must match bit for bit. Each product is rounded
// before the add, as FillSPD's are.
func fillSPDNaive(m *Dense, scratch []float64, rng *xrand.Rand) {
	n := m.Rows
	g := scratch[:n*n]
	for i := range g {
		g[i] = 2*rng.Float64() - 1
	}
	inv := 1 / float64(n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var acc float64
			for p := 0; p < n; p++ {
				acc += float64(g[i+p*n] * g[j+p*n])
			}
			v := acc * inv
			if i == j {
				v++
			}
			m.Data[i+j*m.Stride] = v
			m.Data[j+i*m.Stride] = v
		}
	}
}

// TestFillSPDMatchesNaive pins the tiled FillSPD to the naive loop,
// bit for bit, for every order 1…128 (all tile remainders), on a
// strided matrix whose padding must stay untouched. It runs the AVX
// tile (when the CPU has it) and the portable one, flipping
// haveAVX2FMA.
func TestFillSPDMatchesNaive(t *testing.T) {
	saved := haveAVX2FMA
	defer func() { haveAVX2FMA = saved }()
	for _, avx := range []bool{true, false} {
		if avx && !saved {
			continue
		}
		haveAVX2FMA = avx
		t.Run(fmt.Sprintf("avx=%v", avx), testFillSPDMatchesNaive)
	}
}

func testFillSPDMatchesNaive(t *testing.T) {
	for n := 1; n <= 128; n++ {
		seed := uint64(0x5bd0 + n)
		want := New(n, n)
		fillSPDNaive(want, make([]float64, n*n), xrand.New(seed))
		got := &Dense{Rows: n, Cols: n, Stride: n + 3, Data: make([]float64, (n+3)*n)}
		for i := range got.Data {
			got.Data[i] = math.NaN()
		}
		got.FillSPD(make([]float64, n*n), xrand.New(seed))
		for j := 0; j < n; j++ {
			for i := 0; i < n+3; i++ {
				g := got.Data[i+j*got.Stride]
				if i >= n {
					if !math.IsNaN(g) {
						t.Fatalf("n=%d: padding (%d,%d) written", n, i, j)
					}
					continue
				}
				if w := want.Data[i+j*n]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n=%d: (%d,%d) = %x, naive %x", n, i, j, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
}

// TestFillRandomMatchesDraws pins FillRandom, on a strided matrix (one
// fill per column) and a contiguous one (one fill for all), to the
// column-major one-at-a-time draws 2·Float64() − 1, bit for bit, and in
// the stream position it leaves behind.
func TestFillRandomMatchesDraws(t *testing.T) {
	const r, c = 13, 7
	for _, stride := range []int{16, r} {
		m := &Dense{Rows: r, Cols: c, Stride: stride, Data: make([]float64, stride*c)}
		fill := xrand.New(0xf11)
		m.FillRandom(fill)
		draws := xrand.New(0xf11)
		for j := 0; j < c; j++ {
			for i := 0; i < stride; i++ {
				g := m.Data[i+j*stride]
				if i >= r {
					if g != 0 {
						t.Fatalf("stride %d: padding (%d,%d) written", stride, i, j)
					}
					continue
				}
				if w := 2*draws.Float64() - 1; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("stride %d: (%d,%d) = %v, draw gives %v", stride, i, j, g, w)
				}
			}
		}
		if fill.Uint64() != draws.Uint64() {
			t.Fatalf("stride %d: streams diverge after the fill", stride)
		}
	}
}

// BenchmarkFillSPD compares the tiled fill with the naive oracle at
// orders typical of fused compute requests.
func BenchmarkFillSPD(b *testing.B) {
	for _, n := range []int{32, 48, 63} {
		m := New(n, n)
		scratch := make([]float64, n*n)
		rng := xrand.New(1)
		b.Run(fmt.Sprintf("n%d/tiled", n), func(b *testing.B) {
			for b.Loop() {
				m.FillSPD(scratch, rng)
			}
		})
		b.Run(fmt.Sprintf("n%d/naive", n), func(b *testing.B) {
			for b.Loop() {
				fillSPDNaive(m, scratch, rng)
			}
		})
	}
}
