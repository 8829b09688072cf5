package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"lamb/internal/cpu"
	"lamb/internal/exec"
	"lamb/internal/expr"
)

// perQueryPins are SHA-256 digests of every output bit the per-query
// path computes for each registered expression, every operand filled by
// the engine. "sim" is a request on the simulated backend, which has no
// batched path: two distinct instances of one octave form an
// unregistered bucket, and a third in another octave runs alone. "blas"
// is a request on the measured backend whose two queries sit in
// different octaves, so each is a singleton bucket. "homog" is a
// request on the measured backend that repeats one instance four times,
// so its queries form one homogeneous fused chunk; it is pinned for the
// expressions in homogPinned. The digests differ between the AVX2/FMA
// kernels and the portable ones, so both are kept, keyed by
// cpu.HasAVX2FMA.
var perQueryPins = map[bool]map[string]string{
	true: {
		"sim/aatb":    "af55aee978822e01c8fe91ea24754c824f2f5ba085f0f7861eff7650fe37c51a",
		"sim/aatbc":   "522674a32aefac3ecf47544822fed679ea8e1c7f0b72d04dc2144c8bb19f8e9b",
		"sim/atab":    "24b61577bd0551dd06a93d66e27f55b77b3e849637e8ddca0b933b4fed2dd8c0",
		"sim/chain":   "3f32f983c3936c56edb85a3807ecde4e5418148608fcb7be002f15090b976fcf",
		"sim/gls":     "3060a71b3406279cee031e13406f16a5c636473b91f10be3ef6320212e42bc7d",
		"sim/lstsq":   "8dff34760cfbe6f5e9807c49a3393343b20c3f5731f325613e21e4c93532dccb",
		"blas/aatb":   "fca90cf6ab1e5f065dd148a8f51ba1363538cbf4fc6ca88840e79d27e1ee45cb",
		"blas/aatbc":  "c788442dd3819a484e9b93a5b7c2903e5af747af1034aed40b13b8da0753007b",
		"blas/atab":   "215f7e8131fe6cfc4e9bc47b43285d7b46e5b62f80c153cc30fce5745d644e3b",
		"blas/chain":  "b8d4fe16ecf7d4fe2674ad0402936e631a63c787d76e4bb96cb759c6642345f4",
		"blas/gls":    "ea09e2abc86178d88a6c3398683c434123be4eb9b75a55883a54ba50745cf6f2",
		"blas/lstsq":  "78936495d15021dfc290aa12a9071dc4ae88ef6c79d998099a1214382da2aded",
		"homog/aatb":  "2c6197fb7c4c7b10ff2a0654bb8fc23a0e006f4587301575b4a34c77e819e53a",
		"homog/gls":   "0303f8d1584c00076baa88a44d510d35544839c2d12121094c13f78663dd033f",
		"homog/lstsq": "f719464d6b7a588ff6b4a0e0bf8c7d8e3e8d7b703d106a8c63b80780c0e73e80",
	},
	false: {
		"sim/aatb":    "1686bd04073fa164159c2e5f4841d729f0b71bef58f00c22f8385a828c04fd97",
		"sim/aatbc":   "2868c0c1a61541425b4a2654e7684fd7565977eb6d20dcb70040a618b9a6f7ad",
		"sim/atab":    "bc69d4b97d3f804a462fbb7ace5433a288bb1139a3bc4865fc65a0e67e06b40d",
		"sim/chain":   "576e6c8b15ea4cab37d18c2eb2ede9c9eb4997f670c8c236cd2c07b4eae871f2",
		"sim/gls":     "5b71228fe736a19576175519693dc673794e07ba1090e9530320dc908ec0610f",
		"sim/lstsq":   "4d98e314e6b68e5aad6abddc9234c326bded545bda1d57a70c5105b700bf6b82",
		"blas/aatb":   "cb97a2cba1846f7800dea7402887a5a8befe2c3149dfb7d97df6395969badd00",
		"blas/aatbc":  "2fef189e144e2fb326f28647b2f47d2230c79e9d00b7ab73c750684eff2d64b8",
		"blas/atab":   "17a0530b820e950d869508180d31f4f3594a8f887af267b9c64548354a1f0e2a",
		"blas/chain":  "abadf595e86cd86b149e93154378a3f91dc2399996602f3d87cbc5ee37795377",
		"blas/gls":    "1ab9e4475ddf9ac3e0a665d852ef1c2ce9cc004cd974b2d2cae8cb9121298dd0",
		"blas/lstsq":  "203c776b72d83fbe14d4bf80afa5acb1f310b1ad6ec55af12b51a03dbb6725ea",
		"homog/aatb":  "ba78f762298b8289fb7da8a703455a450f6735a90bd5b571e9410c526dbcf063",
		"homog/gls":   "eccaeaac0075591d707a05236122f5e27dc6436338c3ff35d1ee46a55d520827",
		"homog/lstsq": "26171f4e82c5515e9acb2358c8b63cff7c41d6881b777960b1c961dd7ccef347",
	},
}

// homogPinned are the expressions the "homog" mode pins: GEMM alone,
// and the POTRF, TRSM and SYRK chains of the two solvers.
var homogPinned = map[string]bool{"aatb": true, "lstsq": true, "gls": true}

// homogCopies is how many times the "homog" request repeats its
// instance.
const homogCopies = 4

// perQueryRequest builds the pinned request of one mode for expression
// name: every dimension of the small instance is 8 + its position, of
// its octave neighbour 9 + its position, and of the large instance 40 +
// its position. The "homog" request repeats the small instance.
func perQueryRequest(t *testing.T, name, mode string) Request {
	t.Helper()
	x, err := expr.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	small := make(expr.Instance, x.Arity())
	near := make(expr.Instance, x.Arity())
	large := make(expr.Instance, x.Arity())
	for d := range small {
		small[d], near[d], large[d] = 8+d, 9+d, 40+d
	}
	if small.Octaves() != near.Octaves() {
		t.Fatalf("%s: %v and %v do not share an octave", name, small, near)
	}
	qs := []Query{{Expr: name, Instance: small}, {Expr: name, Instance: large}}
	switch mode {
	case "sim":
		qs = append(qs, Query{Expr: name, Instance: near})
	case "homog":
		qs = make([]Query, homogCopies)
		for i := range qs {
			qs[i] = Query{Expr: name, Instance: small}
		}
	}
	return Request{Queries: qs, Compute: true}
}

// outputDigest hashes the shape and every bit of each result's output,
// in request order. Every result must be fused, or none, as fused says.
func outputDigest(t *testing.T, res []Result, fused bool) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, r := range res {
		if r.Err != nil || r.Output == nil {
			t.Fatalf("query %d: output %v, err %v", i, r.Output != nil, r.Err)
		}
		if r.Fused != fused {
			t.Fatalf("query %d: fused %v, want %v", i, r.Fused, fused)
		}
		o := r.Output
		put(uint64(o.Rows))
		put(uint64(o.Cols))
		for j := 0; j < o.Cols; j++ {
			for k := 0; k < o.Rows; k++ {
				put(math.Float64bits(o.Data[k+j*o.Stride]))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPerQueryOutputPins pins the per-query path bit for bit: every
// registered expression's unregistered bucket on the simulated backend
// and its singleton buckets on the measured one. It also pins the
// homogeneous fused chunks of the expressions in homogPinned.
func TestPerQueryOutputPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pins were recorded on amd64; other compilers may fuse multiply-adds")
	}
	pins := perQueryPins[cpu.HasAVX2FMA]
	for _, mode := range []string{"sim", "blas", "homog"} {
		for _, name := range expr.Names() {
			if mode == "homog" && !homogPinned[name] {
				continue
			}
			cfg := Config{}
			if mode != "sim" {
				cfg.Executor = exec.NewMeasured()
			}
			e := New(cfg)
			got := outputDigest(t, e.Do(context.Background(), perQueryRequest(t, name, mode)), mode == "homog")
			if u := e.Stats().FuseRejected.Unregistered; mode == "sim" && u < 2 {
				t.Errorf("%s: fuse_rejected.unregistered = %d; the octave neighbours did not share a bucket", name, u)
			}
			key := mode + "/" + name
			if want, ok := pins[key]; !ok {
				t.Errorf("%s: no pin recorded (digest %s)", key, got)
			} else if got != want {
				t.Errorf("%s: output digest %s, pinned %s", key, got, want)
			}
		}
	}
}
