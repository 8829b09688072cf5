package router

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomQueryBody builds a query body from pieces that cover the
// canonical form and each way out of it: the four keys as tagged,
// folded and repeated; unknown keys with every kind of value; null;
// escapes and non-ASCII bytes; numbers outside an int; broken syntax;
// and bytes after the value.
func randomQueryBody(r *rand.Rand) string {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	value := func(key string) string {
		switch strings.ToLower(key) {
		case "expr", "strategy":
			return pick(`"aatb"`, `"gls"`, `"min-flops"`, `""`, `"a\"b"`, `"ab"`, `"é"`, `"<&>"`, `null`, `5`, `"a b"`)
		case "instance":
			return pick(`[80,514,768]`, `[]`, `[1]`, `[-3,0]`, `[1.5]`, `[1e2]`, `[9223372036854775807]`,
				`[9223372036854775808]`, `[-9223372036854775808]`, `null`, `[null]`, `"x"`, `[1,]`, `[ 1 , 2 ]`, `[01]`)
		case "timeout_ms":
			return pick(`0`, `250`, `-1`, `1.0`, `1e3`, `null`, `"5"`, `99999999999999999999`, `-0`, `true`)
		}
		return pick(`1`, `-2.5e-3`, `"s"`, `true`, `false`, `null`, `{}`, `[]`, `{"a":[1,{"b":"c"}]}`,
			`[[[[1]]]]`, `{"a":1,"a":2}`, `"\n"`, `tru`, `{"a" 1}`)
	}
	keys := []string{"expr", "instance", "strategy", "timeout_ms", "EXPR", "Instance", "Timeout_MS",
		"extra", "compute", "", "exp", "instances", `expr`}
	var b strings.Builder
	b.WriteString(pick("", " ", "\n\t"))
	if r.Intn(20) == 0 {
		b.WriteString(pick("null", "[]", `"x"`, "", "1"))
	} else {
		b.WriteByte('{')
		n := r.Intn(6)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(pick(",", ",", ", ", ";"))
			}
			k := keys[r.Intn(len(keys))]
			fmt.Fprintf(&b, `"%s"%s%s`, k, pick(":", " : ", ""), value(k))
		}
		b.WriteString(pick("}", "}", "} ", "", "}}", "} x", "}\n"))
	}
	return b.String()
}

// TestRouterKeyDecodeMatchesUnmarshal checks decodeQueryBody, whose
// canonical bodies skip encoding/json, against json.Unmarshal into
// queryBody: the same value and the same error on every body, canonical
// or not.
func TestRouterKeyDecodeMatchesUnmarshal(t *testing.T) {
	r := rand.New(rand.NewSource(0xb0d1))
	seeds := []string{aatbQuery,
		`{"expr":"aatb","instance":[80,514,768],"strategy":"adaptive","timeout_ms":50,"extra":{"x":[1,true]}}`,
		`{"expr":"aatb","EXPR":"gls"}`, `{"expr":"aatb","expr":"gls"}`, `{"instance":[]}`, `{}`}
	for _, body := range seeds[:2] {
		if !parseQueryBody([]byte(body), new(queryBody)) {
			t.Fatalf("canonical body fell back to json.Unmarshal: %s", body)
		}
	}
	fast := 0
	for i := 0; i < 20000; i++ {
		body := randomQueryBody(r)
		if i < len(seeds) {
			body = seeds[i]
		}
		if parseQueryBody([]byte(body), new(queryBody)) {
			fast++
		}
		var got, want queryBody
		err := decodeQueryBody([]byte(body), &got)
		wantErr := json.Unmarshal([]byte(body), &want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, json.Unmarshal %v", body, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v, json.Unmarshal %#v", body, got, want)
		}
	}
	t.Logf("%d of 20000 bodies took the one-pass path", fast)
	if fast < 1000 {
		t.Fatalf("only %d of 20000 bodies took the one-pass path", fast)
	}
}
