package profile

import (
	"math"
	"sort"
	"testing"

	"lamb/internal/kernels"
	"lamb/internal/xrand"
)

// oracleLocate is locate as it was before profiles kept their grids'
// logs: four logs per coordinate. The property test below holds the
// current locate, and so RateAt, bit for bit to it.
func oracleLocate(g []int, x int) (lo, hi int, w float64) {
	n := len(g)
	if x <= g[0] {
		return 0, 0, 0
	}
	if x >= g[n-1] {
		return n - 1, n - 1, 0
	}
	hi = sort.SearchInts(g, x)
	if g[hi] == x {
		return hi, hi, 0
	}
	lo = hi - 1
	w = (math.Log(float64(x)) - math.Log(float64(g[lo]))) /
		(math.Log(float64(g[hi])) - math.Log(float64(g[lo])))
	return lo, hi, w
}

// oracleRateAt is RateAt over oracleLocate.
func oracleRateAt(p *Profile, m, n, k int) float64 {
	im0, im1, wm := oracleLocate(p.GridM, m)
	in0, in1, wn := oracleLocate(p.GridN, n)
	ik0, ik1, wk := oracleLocate(p.GridK, k)
	var acc float64
	for _, cm := range [2]struct {
		idx int
		w   float64
	}{{im0, 1 - wm}, {im1, wm}} {
		for _, cn := range [2]struct {
			idx int
			w   float64
		}{{in0, 1 - wn}, {in1, wn}} {
			for _, ck := range [2]struct {
				idx int
				w   float64
			}{{ik0, 1 - wk}, {ik1, wk}} {
				w := cm.w * cn.w * ck.w
				if w != 0 {
					acc += w * p.rate[cm.idx][cn.idx][ck.idx]
				}
			}
		}
	}
	return acc
}

// randomGrid draws a strictly increasing grid of 1 to 8 sizes in
// [1, 5000].
func randomGrid(r *xrand.Rand) []int {
	n := 1 + r.Intn(8)
	seen := map[int]bool{}
	var g []int
	for len(g) < n {
		x := 1 + r.Intn(5000)
		if !seen[x] {
			seen[x] = true
			g = append(g, x)
		}
	}
	sort.Ints(g)
	return g
}

// TestLocateMatchesFourLogs checks, over random grids and shapes (grid
// points, their neighbours, the clamped ends and points between), that
// locate and RateAt are bit-identical to the four-log oracle.
func TestLocateMatchesFourLogs(t *testing.T) {
	r := xrand.New(0x10c8e)
	for trial := 0; trial < 2000; trial++ {
		gm, gn, gk := randomGrid(r), randomGrid(r), randomGrid(r)
		rate := make([][][]float64, len(gm))
		for i := range rate {
			rate[i] = make([][]float64, len(gn))
			for j := range rate[i] {
				rate[i][j] = make([]float64, len(gk))
				for l := range rate[i][j] {
					rate[i][j][l] = 1e9 * (0.01 + r.Float64())
				}
			}
		}
		p, err := New(kernels.Gemm, gm, gn, gk, rate)
		if err != nil {
			t.Fatal(err)
		}
		shape := func(g []int) int {
			switch r.Intn(4) {
			case 0:
				return g[r.Intn(len(g))] + r.Intn(3) - 1
			case 1:
				return r.Intn(6000) - 10
			default:
				return g[0] + r.Intn(g[len(g)-1]-g[0]+1)
			}
		}
		for range 20 {
			m, n, k := shape(gm), shape(gn), shape(gk)
			for _, c := range []struct {
				g  []int
				lg []float64
				x  int
			}{{gm, p.logM, m}, {gn, p.logN, n}, {gk, p.logK, k}} {
				lo, hi, w := locate(c.g, c.lg, c.x)
				wlo, whi, ww := oracleLocate(c.g, c.x)
				if lo != wlo || hi != whi || math.Float64bits(w) != math.Float64bits(ww) {
					t.Fatalf("locate(%v, %d) = %d, %d, %v; oracle %d, %d, %v", c.g, c.x, lo, hi, w, wlo, whi, ww)
				}
			}
			got, want := p.RateAt(m, n, k), oracleRateAt(p, m, n, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("RateAt(%d, %d, %d) = %v, oracle %v", m, n, k, got, want)
			}
		}
	}
}
