// Package profile measures and interpolates kernel performance profiles.
//
// A profile records a kernel's performance (FLOP/s) on a grid of problem
// shapes. Profiles serve two purposes in the paper:
//
//   - Figure 1 plots kernel efficiency along square sizes (EfficiencyCurve).
//   - The paper's concluding conjecture — that FLOP counts *combined with
//     kernel performance profiles* can predict anomalies and select
//     algorithms — needs a predictor that maps an arbitrary call to an
//     estimated time (Profile.PredictCall). lamb/internal/selection builds
//     the MinPredicted strategy on top of it.
package profile

import (
	"fmt"
	"math"
	"sort"

	"lamb/internal/exec"
	"lamb/internal/kernels"
)

// Point is one benchmarked shape with its measured performance.
type Point struct {
	M, N, K int
	// Seconds is the median measured execution time.
	Seconds float64
	// Flops is the attributed FLOP count of the benchmarked call.
	Flops float64
}

// Rate returns the measured performance in FLOP/s.
func (p Point) Rate() float64 {
	if p.Seconds <= 0 {
		return 0
	}
	return p.Flops / p.Seconds
}

// CurvePoint is one sample of an efficiency curve (Figure 1).
type CurvePoint struct {
	Size       int
	Efficiency float64
}

// EfficiencyCurve measures the efficiency of a kernel kind on square
// operands of the given sizes, using the timer's repetition protocol —
// the data behind the paper's Figure 1.
func EfficiencyCurve(t *exec.Timer, kind kernels.Kind, sizes []int) []CurvePoint {
	out := make([]CurvePoint, 0, len(sizes))
	peak := t.Exec.Peak()
	for _, s := range sizes {
		call := callForShape(kind, s, s, s)
		sec := t.MeasureCallCold(call)
		out = append(out, CurvePoint{Size: s, Efficiency: exec.Efficiency(call, sec, peak)})
	}
	return out
}

// Profile is a benchmarked performance surface for one kernel kind over a
// 3-D grid of shapes, with multilinear interpolation in log-space.
type Profile struct {
	Kind kernels.Kind
	// GridM, GridN, GridK are the sorted grid coordinates per dimension.
	GridM, GridN, GridK []int
	// rate[i][j][l] is the measured FLOP/s at (GridM[i], GridN[j], GridK[l]).
	rate [][][]float64
}

// DefaultGrid returns a geometric grid covering the paper's search space
// (20..1200) with the given number of points per dimension.
func DefaultGrid(points int) []int {
	if points < 2 {
		panic("profile: grid needs at least 2 points")
	}
	lo, hi := 20.0, 1200.0
	out := make([]int, points)
	for i := range out {
		f := float64(i) / float64(points-1)
		out[i] = int(math.Round(lo * math.Pow(hi/lo, f)))
	}
	return out
}

// Measure benchmarks the kernel kind over the grid using the timer's
// repetition protocol with isolated cold calls (the Experiment 3
// protocol). Grids must be sorted ascending. For SYRK, GridN is ignored
// (N ≡ M); for SYMM, GridK is ignored (K ≡ M).
func Measure(t *exec.Timer, kind kernels.Kind, gridM, gridN, gridK []int) *Profile {
	for _, g := range [][]int{gridM, gridN, gridK} {
		if len(g) == 0 || !sort.IntsAreSorted(g) {
			panic("profile: grids must be non-empty and sorted")
		}
	}
	p := &Profile{Kind: kind, GridM: gridM, GridN: gridN, GridK: gridK}
	p.rate = make([][][]float64, len(gridM))
	for i, m := range gridM {
		p.rate[i] = make([][]float64, len(gridN))
		for j, n := range gridN {
			p.rate[i][j] = make([]float64, len(gridK))
			for l, k := range gridK {
				call := callForShape(kind, m, n, k)
				sec := t.MeasureCallCold(call)
				flops := call.Flops()
				if flops == 0 {
					// Data-movement kernels: store bytes/s instead so
					// prediction can divide bytes by rate.
					flops = call.Bytes()
				}
				p.rate[i][j][l] = flops / sec
			}
		}
	}
	return p
}

// callForShape builds the canonical call of a kind with the given shape,
// normalising the constrained dimensions (SYRK: N=M; SYMM: K=M).
func callForShape(kind kernels.Kind, m, n, k int) kernels.Call {
	switch kind {
	case kernels.Gemm:
		return kernels.NewGemm(m, n, k, "A", "B", "C", false, false)
	case kernels.Syrk:
		return kernels.NewSyrk(m, k, "A", "C")
	case kernels.Symm:
		return kernels.NewSymm(m, n, "A", "B", "C")
	case kernels.Tri2Full:
		return kernels.NewTri2Full(m, "C")
	case kernels.Potrf:
		return kernels.NewPotrf(m, "S")
	case kernels.Trsm:
		return kernels.NewTrsm(m, n, "L", "B", false)
	case kernels.AddSym:
		return kernels.NewAddSym(m, "C", "A")
	default:
		panic(fmt.Sprintf("profile: unknown kind %v", kind))
	}
}

// New constructs a Profile from already-measured data: sorted grids and
// a rate table with rate[i][j][l] in FLOP/s (bytes/s for data-movement
// kernels) at (gridM[i], gridN[j], gridK[l]). It validates the invariants
// Measure guarantees, so deserialised profiles predict exactly like
// freshly measured ones.
func New(kind kernels.Kind, gridM, gridN, gridK []int, rate [][][]float64) (*Profile, error) {
	if int(kind) < 0 || int(kind) >= kernels.NumKinds {
		return nil, fmt.Errorf("profile: unknown kind %d", int(kind))
	}
	for _, g := range [][]int{gridM, gridN, gridK} {
		if len(g) == 0 {
			return nil, fmt.Errorf("profile: %v grid is empty", kind)
		}
		for i, x := range g {
			if x <= 0 {
				return nil, fmt.Errorf("profile: %v grid has non-positive size %d", kind, x)
			}
			if i > 0 && g[i-1] >= x {
				return nil, fmt.Errorf("profile: %v grid not strictly increasing: %v", kind, g)
			}
		}
	}
	if len(rate) != len(gridM) {
		return nil, fmt.Errorf("profile: %v rate has %d m-planes, want %d", kind, len(rate), len(gridM))
	}
	for i := range rate {
		if len(rate[i]) != len(gridN) {
			return nil, fmt.Errorf("profile: %v rate[%d] has %d n-rows, want %d", kind, i, len(rate[i]), len(gridN))
		}
		for j := range rate[i] {
			if len(rate[i][j]) != len(gridK) {
				return nil, fmt.Errorf("profile: %v rate[%d][%d] has %d k-entries, want %d", kind, i, j, len(rate[i][j]), len(gridK))
			}
			for l, r := range rate[i][j] {
				// A zero rate would make every prediction touching it
				// +Inf — a state no amount of adaptive feedback can
				// blend away — so only strictly positive finite rates
				// are valid.
				if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
					return nil, fmt.Errorf("profile: %v rate[%d][%d][%d] = %v is not a valid rate", kind, i, j, l, r)
				}
			}
		}
	}
	return &Profile{Kind: kind, GridM: gridM, GridN: gridN, GridK: gridK, rate: rate}, nil
}

// locate returns the bracketing indices and the log-space weight for x in
// the sorted grid g (clamping outside the range).
func locate(g []int, x int) (lo, hi int, w float64) {
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

// RateAt returns the interpolated FLOP/s at shape (m, n, k), multilinear
// in log-size space.
func (p *Profile) RateAt(m, n, k int) float64 {
	im0, im1, wm := locate(p.GridM, m)
	in0, in1, wn := locate(p.GridN, n)
	ik0, ik1, wk := locate(p.GridK, k)
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

// PredictCall estimates the call's execution time from the profile: the
// attributed work (FLOPs, or bytes for data movement) divided by the
// interpolated rate.
func (p *Profile) PredictCall(c kernels.Call) float64 {
	if c.Kind != p.Kind {
		panic(fmt.Sprintf("profile: predicting %v call with %v profile", c.Kind, p.Kind))
	}
	work := c.Flops()
	if work == 0 {
		work = c.Bytes()
	}
	rate := p.RateAt(c.M, c.N, c.K)
	if rate <= 0 {
		return math.Inf(1)
	}
	return work / rate
}

// Set is a collection of profiles covering all kernel kinds.
type Set struct {
	profiles [kernels.NumKinds]*Profile
}

// NewSet returns an empty Set; fill it with Put (deserialisation does).
func NewSet() *Set { return &Set{} }

// Put installs a profile under its kind, replacing any previous one.
func (s *Set) Put(p *Profile) { s.profiles[p.Kind] = p }

// MeasureSet benchmarks profiles for every kernel kind on the default
// grid with the given resolution.
func MeasureSet(t *exec.Timer, points int) *Set {
	grid := DefaultGrid(points)
	s := &Set{}
	for kind := kernels.Kind(0); int(kind) < kernels.NumKinds; kind++ {
		s.profiles[kind] = Measure(t, kind, grid, grid, grid)
	}
	return s
}

// PredictCall estimates a call's time using the matching profile.
func (s *Set) PredictCall(c kernels.Call) float64 {
	p := s.profiles[c.Kind]
	if p == nil {
		panic(fmt.Sprintf("profile: no profile for kind %v", c.Kind))
	}
	return p.PredictCall(c)
}

// Profile returns the profile for a kind (nil if absent).
func (s *Set) Profile(kind kernels.Kind) *Profile { return s.profiles[kind] }
