package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// encodeRecord is the oracle: what json.NewEncoder(w).Encode writes for
// r, without its trailing newline, or an error.
func encodeRecord(r *Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// checkAppendRecord asserts AppendRecord writes what encoding/json
// writes for r, and refuses exactly what encoding/json refuses.
func checkAppendRecord(t *testing.T, r *Record) {
	t.Helper()
	want, err := encodeRecord(r)
	prefix := []byte("prefix")
	got, ok := AppendRecord(prefix, r)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendRecord overwrote its prefix")
	}
	got = got[len(prefix):]
	switch {
	case err != nil && ok:
		t.Fatalf("encoding/json refused the record (%v), AppendRecord wrote %s", err, got)
	case err == nil && !ok:
		t.Fatalf("AppendRecord refused a record encoding/json writes as %s", want)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("AppendRecord wrote\n%s\nencoding/json wrote\n%s", got, want)
	}
}

// specialFloats are the floats whose encoding has a rule of its own: the
// zeros, subnormals, the neighbours of the 1e-6 and 1e21 format
// switches, exponents of one and of three digits, and the non-finite
// values encoding/json refuses.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-9, 1e-10, 1.234e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1.5e22, 1e300,
	0.1, 1, -1, 123456789.125, 0.30000000000000004, 1e-5, 3.0000000000000004e-7,
	1 << 53, 1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, 1 << 60, 123456789012, 2.1e8, 1e20 + 65536,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// specialStrings cover every escape rule: HTML characters, control
// bytes with and without short escapes, quotes and backslashes,
// U+2028 and U+2029, other multi-byte runes, DEL, and invalid UTF-8.
var specialStrings = []string{
	"", "aatb", "min-flops", "<script>&amp;</script>", "a\"b\\c", "\b\f\n\r\t", "\x00\x01\x1f",
	"\u2028\u2029", "x\u2028y", "é€😀", "\x7f", "\xff", "a\xc3", "\xed\xa0\x80", "ok\xe2\x80",
	"gemm(A, A^T) → B", "\ufffd",
}

// randomRecord fills every field of a record from the special values
// and random ones, including nil and empty slices.
func randomRecord(r *rand.Rand) *Record {
	float := func() float64 {
		switch r.Intn(5) {
		case 0:
			return specialFloats[r.Intn(len(specialFloats))]
		case 1:
			return math.Float64frombits(r.Uint64())
		case 2:
			return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
		case 3:
			return math.Trunc(r.NormFloat64() * math.Pow(2, float64(r.Intn(70))))
		}
		return float64(r.Intn(1000)) / 8
	}
	str := func() string {
		if r.Intn(3) == 0 {
			b := make([]byte, r.Intn(12))
			r.Read(b)
			return string(b)
		}
		return specialStrings[r.Intn(len(specialStrings))]
	}
	cand := func() Candidate {
		return Candidate{Index: r.Intn(2000) - 1000, Name: str(), Flops: float()}
	}
	rec := &Record{
		Expr: str(), Strategy: str(), Backend: str(), Selected: cand(),
		NumAlgorithms: r.Int() - r.Int(), Confidence: float(),
		Anomaly: r.Intn(2) == 0, Explore: r.Intn(2) == 0,
	}
	if r.Intn(2) == 0 {
		rec.Profile = str()
	}
	if r.Intn(2) == 0 {
		rec.Requested, rec.Degraded = str(), str()
	}
	switch r.Intn(3) {
	case 1:
		rec.Instance = []int{}
	case 2:
		for range 1 + r.Intn(5) {
			rec.Instance = append(rec.Instance, r.Int()-r.Int())
		}
	}
	switch r.Intn(3) {
	case 1:
		rec.Candidates = []Candidate{}
	case 2:
		for range 1 + r.Intn(4) {
			rec.Candidates = append(rec.Candidates, cand())
		}
	}
	switch r.Intn(3) {
	case 1:
		rec.Ranking = []RankEntry{}
	case 2:
		for range 1 + r.Intn(4) {
			rec.Ranking = append(rec.Ranking, RankEntry{Alg: r.Intn(10), PBest: float(), Mean: float(), StdErr: float()})
		}
	}
	return rec
}

// TestAppendRecordMatchesEncoder runs random records through
// AppendRecord and encoding/json.
func TestAppendRecordMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(0x5ec0de))
	for range 20000 {
		checkAppendRecord(t, randomRecord(r))
	}
	for _, f := range specialFloats {
		for _, s := range specialStrings {
			checkAppendRecord(t, &Record{Expr: s, Confidence: f, Selected: Candidate{Name: s, Flops: -f}})
		}
	}
}

// TestAppendRecordMatchesServedRecords encodes records the engine
// answers, under every strategy, as encoding/json does.
func TestAppendRecordMatchesServedRecords(t *testing.T) {
	e := profiledEngine(t, Config{})
	for _, strat := range e.Strategies() {
		for _, q := range []Query{
			{Expr: "aatb", Instance: []int{64, 48, 32}, Strategy: strat},
			{Expr: "GLS", Instance: []int{40, 30, 20, 10}, Strategy: strat},
		} {
			res := e.Do(t.Context(), Request{Queries: []Query{q}})
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
			checkAppendRecord(t, res[0].Record)
		}
	}
}

// FuzzAppendRecord checks AppendRecord against encoding/json on records
// built from fuzzed strings, floats and integers.
func FuzzAppendRecord(f *testing.F) {
	f.Add("aatb", "<&>\u2029", 1e21, 1e-7, 3, false)
	f.Add("\xff", "", math.Copysign(0, -1), 5e-324, -1, true)
	f.Fuzz(func(t *testing.T, s1, s2 string, x, y float64, n int, flag bool) {
		rec := &Record{
			Expr: s1, Instance: []int{n, -n}, Strategy: s2, Backend: s1 + s2,
			Selected:      Candidate{Index: n, Name: s2, Flops: x},
			NumAlgorithms: n, Profile: s2, Confidence: y, Anomaly: flag, Explore: !flag,
			Candidates: []Candidate{{Index: 1, Name: s1, Flops: y}},
			Ranking:    []RankEntry{{Alg: n, PBest: x, Mean: y, StdErr: x * y}},
		}
		if flag {
			rec.Instance, rec.Ranking, rec.Requested, rec.Degraded = nil, nil, s1, s2
		}
		checkAppendRecord(t, rec)
	})
}

// BenchmarkRecordAppend times encoding one served record (aatb,
// min-predicted, profiled): AppendRecord into a reused buffer beside
// json.NewEncoder(w).Encode, which it replaces on the serving path.
func BenchmarkRecordAppend(b *testing.B) {
	e := profiledEngine(b, Config{})
	res := e.Do(context.Background(), Request{Queries: []Query{{Expr: "aatb", Instance: []int{80, 514, 768}, Strategy: "min-predicted"}}})
	if res[0].Err != nil {
		b.Fatal(res[0].Err)
	}
	rec := res[0].Record
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			buf, _ = AppendRecord(buf[:0], rec)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(rec); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
