package cjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"unicode/utf8"
)

// marshal is the oracle: what json.NewEncoder(w).Encode writes for v,
// without its trailing newline.
func marshal(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), err
}

// TestAppendFloatMatchesEncoder checks AppendFloat against encoding/json
// on random bit patterns, integer-valued floats on both sides of 2^53,
// and the format switches at 1e-6 and 1e21.
func TestAppendFloatMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(0xf10a7))
	check := func(f float64) {
		want, err := marshal(t, f)
		got, ok := AppendFloat([]byte("x"), f)
		if ok != (err == nil) || ok && !bytes.Equal(got[1:], want) || !ok && string(got) != "x" {
			t.Fatalf("AppendFloat(%v) = %q, %v; encoding/json %q, %v", f, got, ok, want, err)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(f)
	}
	for range 200000 {
		check(math.Float64frombits(r.Uint64()))
		check(math.Trunc(r.NormFloat64() * math.Pow(2, float64(r.Intn(80)))))
		check(r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25)))
	}
}

// TestAppendStringMatchesEncoder checks AppendString against
// encoding/json on every byte alone, every rune class that has a rule,
// and random byte strings (mostly invalid UTF-8).
func TestAppendStringMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(0x57a1))
	check := func(s string) {
		want, _ := marshal(t, s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	for c := 0; c < 256; c++ {
		check(string([]byte{'a', byte(c), 'b'}))
	}
	for _, s := range []string{"", "\u2028", "\u2029", "a\u2028b\u2029c", "\ufffd", "é€😀", string(utf8.RuneError), "\xed\xa0\x80", "\xf4\x90\x80\x80"} {
		check(s)
	}
	for range 100000 {
		b := make([]byte, r.Intn(16))
		r.Read(b)
		check(string(b))
	}
}

// TestReaderIntMatchesUnmarshal checks Int against json.Unmarshal into
// an int at the edges of the range and the grammar.
func TestReaderIntMatchesUnmarshal(t *testing.T) {
	texts := []string{"0", "-0", "7", "-7", strconv.Itoa(math.MaxInt), strconv.Itoa(math.MinInt),
		"9223372036854775808", "-9223372036854775809", "99999999999999999999", "18446744073709551616",
		"1.0", "1e2", "01", "-", "+1", "1.", ".5"}
	for _, text := range texts {
		var want int
		wantErr := json.Unmarshal([]byte(text), &want)
		r := NewReader([]byte(text))
		got, ok := r.Int()
		ok = ok && r.End()
		if ok != (wantErr == nil) || ok && got != want {
			t.Fatalf("Int(%s) = %d, %v; json.Unmarshal %d, %v", text, got, ok, want, wantErr)
		}
	}
}

// TestLenientObjectSkipsAndFolds pins LenientObject's rules: unknown
// keys are skipped with values of every kind; a folded or repeated key
// ends the parse, as does a value nested past the skip depth.
func TestLenientObjectSkipsAndFolds(t *testing.T) {
	keys := []string{"expr"}
	deep := fmt.Sprintf(`{"x":%s1%s,"expr":"a"}`, bytes.Repeat([]byte("["), maxSkipDepth+2), bytes.Repeat([]byte("]"), maxSkipDepth+2))
	for body, want := range map[string]bool{
		`{"x":1,"y":"s","z":[true,false,{"a":{}}],"w":-1.5e3,"expr":"a"}`: true,
		`{"Expr":"a"}`:            false,
		`{"EXPR":"a"}`:            false,
		`{"expr":"a","expr":"b"}`: false,
		`{"x":null,"expr":"a"}`:   false,
		`{"x":tru,"expr":"a"}`:    false,
		deep:                      false,
	} {
		r := NewReader([]byte(body))
		got := r.LenientObject(keys, func(string) bool { _, ok := r.Str(); return ok }) && r.End()
		if got != want {
			t.Fatalf("LenientObject(%s) = %v, want %v", body, got, want)
		}
	}
}
