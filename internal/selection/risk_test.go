package selection

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"lamb/internal/expr"
	"lamb/internal/xrand"
)

func TestPosteriorWithoutEvidenceIsThePrior(t *testing.T) {
	prior := stubPredictor{1: 3.0, 2: 1.0, 3: 2.0}
	s := Adaptive{Prior: prior}
	post := s.Posterior(expr.Instance{100, 100}, stubAlgs(3))
	if len(post) != 3 {
		t.Fatalf("posterior length %d", len(post))
	}
	for i, want := range []float64{3.0, 1.0, 2.0} {
		if post[i].Mean != want {
			t.Fatalf("posterior %d mean %g, want %g", i, post[i].Mean, want)
		}
		if post[i].Informed {
			t.Fatalf("posterior %d informed with no evidence", i)
		}
		// Prior-only spread: std = relStd·p, mass = 1, so stderr = relStd·p.
		wantSE := DefaultPriorRelStd * want
		if math.Abs(post[i].StdErr-wantSE) > 1e-12 {
			t.Fatalf("posterior %d stderr %g, want %g", i, post[i].StdErr, wantSE)
		}
	}
	if BestIndex(post) != 1 {
		t.Fatalf("best %d, want 1", BestIndex(post))
	}
}

func TestPosteriorMeanMatchesChooseFor(t *testing.T) {
	// Posterior is the generalisation of the old blend: the pooled means
	// must induce exactly the pick ChooseFor makes.
	prior := stubPredictor{1: 1.0, 2: 1.4, 3: 1.5}
	s := Adaptive{
		Prior: prior,
		Observe: func(expr.Instance) []Observation {
			return []Observation{
				{Algorithm: 1, Seconds: 10.0, Count: 3, Distance: 0},
				{Algorithm: 3, Seconds: 0.1, Count: 3, Distance: 0},
			}
		},
	}
	algs := stubAlgs(3)
	inst := expr.Instance{100}
	post := s.Posterior(inst, algs)
	if got, want := BestIndex(post), s.ChooseFor(inst, algs); got != want {
		t.Fatalf("BestIndex %d, ChooseFor %d", got, want)
	}
	// alg1: (1 + 3·10)/4 = 7.75; alg3: (1.5 + 3·0.1)/4 = 0.45.
	if math.Abs(post[0].Mean-7.75) > 1e-12 || math.Abs(post[2].Mean-0.45) > 1e-12 {
		t.Fatalf("pooled means %g %g", post[0].Mean, post[2].Mean)
	}
	if !post[0].Informed || post[1].Informed || !post[2].Informed {
		t.Fatalf("informed flags %v %v %v", post[0].Informed, post[1].Informed, post[2].Informed)
	}
}

func TestPosteriorVarianceShrinksWithEvidence(t *testing.T) {
	// More mass behind the same mean narrows the standard error — the
	// property that makes confidence grow with feedback.
	prior := stubPredictor{1: 1.0}
	obs := Observation{Algorithm: 1, Seconds: 1.0, Count: 1, Distance: 0}
	s := Adaptive{Prior: prior, Observe: func(expr.Instance) []Observation {
		return []Observation{obs}
	}}
	algs := stubAlgs(1)
	inst := expr.Instance{10}
	narrow := s.Posterior(inst, algs)[0]
	obs.Count = 20
	wide := s.Posterior(inst, algs)[0]
	if wide.StdErr >= narrow.StdErr {
		t.Fatalf("stderr did not shrink: %g -> %g", narrow.StdErr, wide.StdErr)
	}
	if wide.Weight <= narrow.Weight {
		t.Fatalf("weight did not grow: %g -> %g", narrow.Weight, wide.Weight)
	}
}

func TestBeatProbability(t *testing.T) {
	a := AlgPosterior{Mean: 1.0, StdErr: 0.1}
	b := AlgPosterior{Mean: 2.0, StdErr: 0.1}
	if p := BeatProbability(a, b); p < 0.99 {
		t.Fatalf("clear winner p=%g", p)
	}
	if p := BeatProbability(b, a); p > 0.01 {
		t.Fatalf("clear loser p=%g", p)
	}
	if p := BeatProbability(a, a); p != 0.5 {
		t.Fatalf("self tie p=%g", p)
	}
	// Complementarity: P(a<b) + P(b<a) = 1.
	c := AlgPosterior{Mean: 1.1, StdErr: 0.3}
	if s := BeatProbability(a, c) + BeatProbability(c, a); math.Abs(s-1) > 1e-12 {
		t.Fatalf("complement sum %g", s)
	}
	// Degenerate posteriors (no spread) decide by mean.
	z1 := AlgPosterior{Mean: 1}
	z2 := AlgPosterior{Mean: 2}
	if BeatProbability(z1, z2) != 1 || BeatProbability(z2, z1) != 0 || BeatProbability(z1, z1) != 0.5 {
		t.Fatal("degenerate beat probabilities")
	}
}

// TestWinProbabilitiesSumToOne is the property test for the ranking: for
// arbitrary posterior sets of every size — including point masses
// (StdErr 0), exact ties and non-finite means or spreads — p_best sums
// to exactly 1, every entry stays in [0, 1], and a repeated call
// returns the same bits.
func TestWinProbabilitiesSumToOne(t *testing.T) {
	gen := xrand.New(7)
	for trial := 0; trial < 400; trial++ {
		n := 1 + gen.Intn(15)
		post := make([]AlgPosterior, n)
		for i := range post {
			post[i] = AlgPosterior{
				Algorithm: i + 1,
				Mean:      0.1 + gen.Float64(),
				StdErr:    gen.Float64() * 0.5, // sometimes ~0: degenerate spread
			}
			switch r := gen.Float64(); {
			case r < 0.15:
				post[i].StdErr = 0 // point mass
			case r < 0.3 && i > 0:
				post[i] = post[gen.Intn(i)] // exact tie with an earlier entry
				post[i].Algorithm = i + 1
			case r < 0.33:
				post[i].Mean = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[gen.Intn(3)]
			case r < 0.35:
				post[i].StdErr = []float64{math.NaN(), math.Inf(1), -0.1}[gen.Intn(3)]
			}
		}
		probs := WinProbabilities(post, nil, 0)
		if len(probs) != n {
			t.Fatalf("trial %d: %d probs for %d algorithms", trial, len(probs), n)
		}
		sum := 0.0
		for i, p := range probs {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("trial %d: p[%d]=%g out of range for %+v", trial, i, p, post)
			}
			sum += p
		}
		// Sets of three or more are rounded onto a 2^-20 grid and pairs
		// use p and 1−p, so the sum is exact, not approximate.
		if sum != 1 {
			t.Fatalf("trial %d (n=%d): probabilities sum to %g for %+v", trial, n, sum, post)
		}
		if again := WinProbabilities(post, nil, 0); !reflect.DeepEqual(probs, again) {
			t.Fatalf("trial %d: repeated call differs: %v vs %v", trial, probs, again)
		}
	}
}

// TestWinProbabilitiesQuadratureDeterministic pins that no sampler is
// left: the probabilities depend on the posterior alone, whatever rng
// and sample count a caller still passes.
func TestWinProbabilitiesQuadratureDeterministic(t *testing.T) {
	post := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.2},
		{Algorithm: 2, Mean: 1.1, StdErr: 0.3},
		{Algorithm: 3, Mean: 1.3, StdErr: 0.1},
	}
	a := WinProbabilities(post, nil, 0)
	for _, b := range [][]float64{
		WinProbabilities(post, xrand.New(99), 0),
		WinProbabilities(post, xrand.New(100), 512),
	} {
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("probabilities depend on the sampler arguments: %v vs %v", a, b)
		}
	}
	// The faster, tighter algorithm should dominate.
	if a[0] <= a[2] {
		t.Fatalf("ordering lost: %v", a)
	}
}

// TestWinProbabilitiesQuadraturePointMasses pins the closed forms around
// point masses: an all-point-mass set goes to its lowest mean, ties to
// the lowest position as in BestIndex; a point mass among normals wins
// with ∏ P(Tⱼ > m); and non-finite input puts all mass on BestIndex.
func TestWinProbabilitiesQuadraturePointMasses(t *testing.T) {
	tied := []AlgPosterior{{Algorithm: 1, Mean: 2}, {Algorithm: 2, Mean: 1}, {Algorithm: 3, Mean: 1}}
	if got := WinProbabilities(tied, nil, 0); !reflect.DeepEqual(got, []float64{0, 1, 0}) {
		t.Fatalf("tied point masses: %v", got)
	}
	mixed := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.2},
		{Algorithm: 2, Mean: 1.1},
		{Algorithm: 3, Mean: 1.2, StdErr: 0.3},
		{Algorithm: 4, Mean: 1.4}, // a point mass that can never win
	}
	got := WinProbabilities(mixed, nil, 0)
	want := normalCDF((1.0-1.1)/0.2) * normalCDF((1.2-1.1)/0.3)
	if math.Abs(got[1]-want) > 1e-3 {
		t.Fatalf("point mass p %g, want ∏ P(Tⱼ > m) = %g", got[1], want)
	}
	if got[3] != 0 {
		t.Fatalf("dominated point mass p %g", got[3])
	}
	ref := referenceWinProbabilities(mixed, xrand.New(5))
	for i := range got {
		if math.Abs(got[i]-ref[i]) > 0.01 {
			t.Fatalf("p[%d] = %g, reference %g", i, got[i], ref[i])
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		post := append([]AlgPosterior(nil), mixed...)
		post[2].Mean = bad
		got := WinProbabilities(post, nil, 0)
		want := make([]float64, len(post))
		want[BestIndex(post)] = 1
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mean %v: %v, want all mass on BestIndex", bad, got)
		}
	}
}

// referenceSamples is the Monte Carlo reference's sample count: its
// own noise is about 0.002 at p = ½.
const referenceSamples = 1 << 16

// referenceWinProbabilities estimates win probabilities by sampling,
// ties to the lowest position: the independent reference the quadrature
// is checked against. It draws from math/rand/v2's ziggurat sampler,
// seeded from rng, which shares no code with this package.
func referenceWinProbabilities(post []AlgPosterior, rng *xrand.Rand) []float64 {
	src := rand.New(rand.NewPCG(rng.Uint64(), rng.Uint64()))
	out := make([]float64, len(post))
	for s := 0; s < referenceSamples; s++ {
		best, bestT := 0, math.Inf(1)
		for i, p := range post {
			if t := p.Mean + p.StdErr*src.NormFloat64(); t < bestT {
				best, bestT = i, t
			}
		}
		out[best]++
	}
	for i := range out {
		out[i] /= referenceSamples
	}
	return out
}

// flopPriorSets returns n prior-only posteriors (FLOP prior, σ = 0.25·μ)
// of the named expression at instances drawn from the paper's box.
func flopPriorSets(t testing.TB, name string, n int, rng *xrand.Rand) [][]AlgPosterior {
	x, err := expr.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	box := expr.PaperBox(x.Arity())
	sets := make([][]AlgPosterior, n)
	for i := range sets {
		inst := box.Sample(rng)
		sets[i] = Adaptive{Prior: FlopsPredictor{}}.Posterior(inst, x.Algorithms(inst))
	}
	return sets
}

// mixedWidthSet returns a synthetic posterior of 3–8 candidates with
// overlapping means whose spreads differ by up to 100×: the shape
// feedback gives a posterior when it narrows some candidates only.
func mixedWidthSet(rng *xrand.Rand) []AlgPosterior {
	post := make([]AlgPosterior, 3+rng.Intn(6))
	for i := range post {
		mu := 1 + 0.5*rng.Float64()
		post[i] = AlgPosterior{Algorithm: i + 1, Mean: mu, StdErr: 0.25 * mu * math.Pow(100, -rng.Float64())}
	}
	return post
}

// checkAgainstReference fails if any probability of any set is more
// than 0.01 from the sampled reference.
func checkAgainstReference(t *testing.T, label string, sets [][]AlgPosterior, rng *xrand.Rand) {
	t.Helper()
	worst := 0.0
	for _, post := range sets {
		got := WinProbabilities(post, nil, 0)
		ref := referenceWinProbabilities(post, rng)
		for i := range got {
			if d := math.Abs(got[i] - ref[i]); d > worst {
				worst = d
			}
			if d := math.Abs(got[i] - ref[i]); d > 0.01 {
				t.Fatalf("%s: p[%d] = %g, reference %g for %+v", label, i, got[i], ref[i], post)
			}
		}
	}
	t.Logf("%s: max |p − ref| = %.4f over %d sets", label, worst, len(sets))
}

// TestPBestAccuracyPaperBox checks the quadrature against a 2^16-sample
// Monte Carlo reference on 60 paper-box instances of every registered
// expression, each ranked under its FLOP prior.
func TestPBestAccuracyPaperBox(t *testing.T) {
	rng := xrand.New(11)
	for _, name := range expr.Names() {
		checkAgainstReference(t, name, flopPriorSets(t, name, 60, rng), rng)
	}
}

// TestPBestAccuracyMixedWidths checks the quadrature's refinements —
// clusters across narrow crossings, and the cut at a point mass —
// against the same reference, on sets whose spreads differ by up to
// 100×, a fifth of them with one candidate a point mass.
func TestPBestAccuracyMixedWidths(t *testing.T) {
	rng := xrand.New(12)
	sets := make([][]AlgPosterior, 120)
	for i := range sets {
		sets[i] = mixedWidthSet(rng)
		if i%5 == 0 {
			sets[i][rng.Intn(len(sets[i]))].StdErr = 0
		}
	}
	checkAgainstReference(t, "mixed widths", sets, rng)
}

func TestWinProbabilitiesEdgeCases(t *testing.T) {
	if got := WinProbabilities(nil, nil, 0); got != nil {
		t.Fatalf("empty set: %v", got)
	}
	one := WinProbabilities([]AlgPosterior{{Algorithm: 1, Mean: 2}}, nil, 0)
	if !reflect.DeepEqual(one, []float64{1}) {
		t.Fatalf("singleton: %v", one)
	}
	// Two algorithms use the closed form even with a nil rng.
	two := WinProbabilities([]AlgPosterior{
		{Algorithm: 1, Mean: 1, StdErr: 0.1},
		{Algorithm: 2, Mean: 9, StdErr: 0.1},
	}, nil, 0)
	if two[0] < 0.99 || two[0]+two[1] != 1 {
		t.Fatalf("closed form: %v", two)
	}
}

func TestGapConfidence(t *testing.T) {
	settled := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.01},
		{Algorithm: 2, Mean: 2.0, StdErr: 0.01},
		{Algorithm: 3, Mean: 3.0, StdErr: 0.01},
	}
	if c := GapConfidence(settled); c < 0.99 {
		t.Fatalf("settled gap confidence %g", c)
	}
	coinFlip := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.5},
		{Algorithm: 2, Mean: 1.001, StdErr: 0.5},
	}
	if c := GapConfidence(coinFlip); math.Abs(c-0.5) > 0.01 {
		t.Fatalf("coin-flip gap confidence %g", c)
	}
	if c := GapConfidence(settled[:1]); c != 1 {
		t.Fatalf("singleton gap confidence %g", c)
	}
}

func TestSampleBestExploresWidePosterior(t *testing.T) {
	// Thompson property: a slightly-slower algorithm with a wide
	// posterior is sampled sometimes; a settled loser essentially never.
	post := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.01}, // settled favourite
		{Algorithm: 2, Mean: 1.1, StdErr: 0.5},  // uncertain challenger
		{Algorithm: 3, Mean: 5.0, StdErr: 0.01}, // settled loser
	}
	rng := xrand.New(3)
	counts := [3]int{}
	for i := 0; i < 2000; i++ {
		counts[SampleBest(post, rng)]++
	}
	if counts[1] == 0 {
		t.Fatal("uncertain challenger never explored")
	}
	if counts[0] < counts[1] {
		t.Fatalf("favourite sampled less than challenger: %v", counts)
	}
	if counts[2] != 0 {
		t.Fatalf("settled loser explored %d times", counts[2])
	}
}

func TestFlopsPredictorOrdersLikeMinFlops(t *testing.T) {
	algs := stubAlgs(3)
	var p FlopsPredictor
	post := make([]AlgPosterior, len(algs))
	for i := range algs {
		post[i] = AlgPosterior{Algorithm: algs[i].Index, Mean: p.PredictAlgorithm(&algs[i])}
	}
	if BestIndex(post) != (MinFlops{}).Choose(algs) {
		t.Fatal("FlopsPredictor posterior disagrees with MinFlops")
	}
}

// BenchmarkWinProbabilities times one ranking per op, cycling through 16
// paper-box FLOP-prior sets of each registered expression, and 16
// mixed-width sets.
func BenchmarkWinProbabilities(b *testing.B) {
	rng := xrand.New(3)
	run := func(name string, sets [][]AlgPosterior) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				WinProbabilities(sets[i%len(sets)], nil, 0)
			}
		})
	}
	for _, name := range expr.Names() {
		run(name, flopPriorSets(b, name, 16, rng))
	}
	mixed := make([][]AlgPosterior, 16)
	for i := range mixed {
		mixed[i] = mixedWidthSet(rng)
	}
	run("mixed-width", mixed)
}
