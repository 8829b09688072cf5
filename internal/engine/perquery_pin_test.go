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

// perQueryPins are SHA-256 digests of every output bit the compute path
// computes for each registered expression, every operand filled by the
// engine. "sim" is a request on the simulated backend with two distinct
// instances of one octave and a third in another octave. "blas" is a
// request on the measured backend whose two queries sit in different
// octaves. "homog" is a request on the measured backend that repeats
// one instance four times; it is pinned for the expressions in
// homogPinned. Every query runs alone, so each output is the per-query
// output of its instance, whatever else its request carries. The digests differ between the AVX2/FMA
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
		"homog/aatb":  "a8be5bc58d73924d7209e0b41fb023748bda7cdce73f423ad63a664fd42d9a8d",
		"homog/gls":   "46c5982628baa10a69948d5283b775511692eb6715c27fcfad8684b289d6903f",
		"homog/lstsq": "fe8a45b9d5cf2b57916b245995bf1d9a7b0291697f9f3d9ff605e18f99c3cf47",
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
		"homog/aatb":  "78a07c71973a0095a7617f9f87afa3b4e2f108756c158db3989b71d782797dcd",
		"homog/gls":   "2f30b01aaba3e872dc8e74e4fac3299002f8c9e6be43f8679f7a87795f1d03c8",
		"homog/lstsq": "350ce92577f49fea85f8649987350fa788c3773a101b73fa41f3d19423781116",
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
// in request order.
func outputDigest(t *testing.T, res []Result) string {
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

// TestPerQueryOutputPins pins the compute path bit for bit: every
// registered expression's octave neighbours on the simulated backend
// and its instances of two octaves on the measured one. It also pins
// one instance computed four times in one request, for the expressions
// in homogPinned.
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
			got := outputDigest(t, e.Do(context.Background(), perQueryRequest(t, name, mode)))
			key := mode + "/" + name
			if want, ok := pins[key]; !ok {
				t.Errorf("%s: no pin recorded (digest %s)", key, got)
			} else if got != want {
				t.Errorf("%s: output digest %s, pinned %s", key, got, want)
			}
		}
	}
}
