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
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// perQueryPins are SHA-256 digests of every output bit the per-query
// path computes for each registered expression, recorded before that
// path moved from private plans into the engine's slab. "sim" is a
// request on the simulated backend, which has no batched path: two
// queries of one instance (one default-filled, one with caller inputs)
// form an unregistered bucket, and a third in another octave runs
// alone. "blas" is a request on the measured backend whose two queries
// sit in different octaves, so each is a singleton bucket. The digests
// differ between the AVX2/FMA kernels and the portable ones, so both
// are kept, keyed by cpu.HasAVX2FMA.
var perQueryPins = map[bool]map[string]string{
	true: {
		"sim/aatb":   "28ea5ce5106106ae936195eb55befa983b9f97518fd3ead514ad5e8ae5d2a325",
		"sim/aatbc":  "92ffcf4342cc09519a6e5a7a5f02f8d244510369d91467a0dd9ce148fc2ba5ac",
		"sim/atab":   "1da37624e6821e134e5a896d879e7d605d4cd7436a9d3de4adedb5bcb31c9114",
		"sim/chain":  "6eaf7aa67a2685b6d41e233286e965093b85fe1e85609341c13f2d58e4b80803",
		"sim/gls":    "b210e865eb51953d16c016a69df5ce511e1cbab1bce1510b321bcc5795b50586",
		"sim/lstsq":  "462d7f68438d2e6caa73869d185903dbd49d0fb5666f32a3c2dc69b01fb62b43",
		"blas/aatb":  "e0e2003cd1e802f06631a819a6ba150a7fbe3155b7560505e50cb21e48ae0bc1",
		"blas/aatbc": "b971e1f7d6a00baefbff6fb29745945884d5df6dec29c4f1e449f321b7e24e31",
		"blas/atab":  "520760049f5b5f31da401667acc385c7c95d9f6b8f6950f0892f8e9fcd079488",
		"blas/chain": "177069ded13c6790b35e0102904f46238cb0854967d1192f9d71fdded844d2eb",
		"blas/gls":   "2b03150d48e73d429dd93a91bffdef1f99383b6f52118007de81eb45c08244d6",
		"blas/lstsq": "d8cc4d7d71bfddfc14006d09ccc14da8924e48e2a9d275b56ab9c91545de9a5f",
	},
	false: {
		"sim/aatb":   "dd88f472a4fbf7c6065fd67e41f305e43afeaec033c3b91a47c16c116f24e7e6",
		"sim/aatbc":  "55d18df64c30a8a6b23641460ec5da7b37934028d7837eee74e6d38a8f2c0682",
		"sim/atab":   "868e7681a4d16ae9dbaeca4d795ec42720f3ced51444513cb739c6020382e44e",
		"sim/chain":  "6bf03bcc30c23476866433592c195c92da6e03738e61aa67a484e6f01b738602",
		"sim/gls":    "ac8939d20cc54b19d7e76a6de193e9c79f616a5107cc9df5797f9fb5c2353265",
		"sim/lstsq":  "1a6a2cf2b547ad8c23c94e53f4b4ba15f3c8b50c8f48514f3a620c956f4b04a2",
		"blas/aatb":  "652dcac146e6f7145374035bfb5155bfb744000f31b89ca89451651ab3db9853",
		"blas/aatbc": "a414442bb1951c540817b8ffac17ef6a967ef64099839792a8438e1a1c86e45b",
		"blas/atab":  "2914182252c70e36d2847b4e906576ab15789bf680cd3de8f0bc2fca0f4762cf",
		"blas/chain": "9fd1e34bd098bf29dc52d4497e8d8310b813d6d4c9e6594fb0d624b922dbc43c",
		"blas/gls":   "2f683d5b5950c2ec22631093c09acbf1e68cdf137c141976db86591bde929b39",
		"blas/lstsq": "44578d45e49020046853b0fd0b1e83a431f209e83c9c99e0ca8de6a22d4c97bf",
	},
}

// perQueryRequest builds the pinned request of one mode for expression
// name: every dimension of the first instance is 12 + its position,
// of the second 40 + its position.
func perQueryRequest(t *testing.T, e *Engine, name, mode string) Request {
	t.Helper()
	x, err := expr.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	small := make(expr.Instance, x.Arity())
	large := make(expr.Instance, x.Arity())
	for d := range small {
		small[d], large[d] = 12+d, 40+d
	}
	algs, err := e.Algorithms(name, small)
	if err != nil {
		t.Fatal(err)
	}
	in := pinInputs(&algs[0], xrand.New(0x919))
	if mode == "sim" {
		return Request{
			Queries: []Query{{Expr: name, Instance: small}, {Expr: name, Instance: small}, {Expr: name, Instance: large}},
			Compute: true,
			Inputs:  []map[string]*mat.Dense{1: in},
		}
	}
	return Request{
		Queries: []Query{{Expr: name, Instance: small}, {Expr: name, Instance: large}},
		Compute: true,
		Inputs:  []map[string]*mat.Dense{in},
	}
}

// pinInputs builds a full input map for the algorithm from the rng,
// with its SPD inputs symmetric positive definite.
func pinInputs(alg *expr.Algorithm, rng *xrand.Rand) map[string]*mat.Dense {
	in := randomInputs(alg, rng)
	for _, id := range alg.SPDInputs {
		in[id] = mat.NewSPDRandom(alg.Shapes[id].Rows, rng)
	}
	return in
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
		if r.Fused {
			t.Fatalf("query %d fused; the pin covers the per-query path", i)
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
// and its singleton buckets on the measured one.
func TestPerQueryOutputPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pins were recorded on amd64; other compilers may fuse multiply-adds")
	}
	pins := perQueryPins[cpu.HasAVX2FMA]
	for _, mode := range []string{"sim", "blas"} {
		for _, name := range expr.Names() {
			cfg := Config{}
			if mode == "blas" {
				cfg.Executor = exec.NewMeasured()
			}
			e := New(cfg)
			got := outputDigest(t, e.Do(context.Background(), perQueryRequest(t, e, name, mode)))
			key := mode + "/" + name
			if want, ok := pins[key]; !ok {
				t.Errorf("%s: no pin recorded (digest %s)", key, got)
			} else if got != want {
				t.Errorf("%s: output digest %s, pinned %s", key, got, want)
			}
		}
	}
}
