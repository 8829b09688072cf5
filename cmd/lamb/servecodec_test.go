package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lamb/internal/engine"
	"lamb/internal/profile"
)

// referenceDecode is serve's body decode as it was before the one-pass
// reader: a strict json.Decoder straight off the size-capped body.
func referenceDecode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return err
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return err
	}
	return nil
}

// strictDecode is the oracle for one body: a strict json.Decoder over
// the bytes.
func strictDecode[T any](data []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return v, err
}

// checkBody asserts that decodeBody answers data as the strict
// json.Decoder does, value and error, and that whatever parse accepts,
// encoding/json decodes to the same value. It reports whether parse
// accepted data.
func checkBody[T any](t *testing.T, data []byte, parse func([]byte, *T) bool) bool {
	t.Helper()
	var fast T
	canonical := parse(data, &fast)
	want, wantErr := strictDecode[T](data)
	if canonical && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("one-pass parse of %q gave %#v; encoding/json gave %#v, %v", data, fast, want, wantErr)
	}
	var got T
	err := decodeBody(data, nil, &got, parse)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("decodeBody(%q) error %v, encoding/json %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeBody(%q) gave %#v, encoding/json %#v", data, got, want)
	}
	return canonical
}

// FuzzDecodeQueryBody checks every input as a query body and as a batch
// body: decoding never panics, the one-pass parser accepts nothing
// encoding/json would decode differently, and serve's decode answers as
// a strict json.Decoder does — the same value and the same error. The
// seed corpus under testdata/fuzz/FuzzDecodeQueryBody covers the
// canonical form and each way out of it.
func FuzzDecodeQueryBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBody(t, data, parseQueryRequest)
		checkBody(t, data, parseBatchRequest)
	})
}

// TestQueryBodyPaths pins which path each seed takes: query-* seeds
// parse in one pass as query bodies, batch-* seeds as batch bodies,
// both-* seeds as either, and fallback-* seeds as neither; every one
// decodes as encoding/json decodes it.
func TestQueryBodyPaths(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeQueryBody", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no seed corpus")
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			data := readSeed(t, path)
			query := checkBody(t, data, parseQueryRequest)
			batch := checkBody(t, data, parseBatchRequest)
			both := strings.HasPrefix(name, "both-")
			want := [2]bool{both || strings.HasPrefix(name, "query-"), both || strings.HasPrefix(name, "batch-")}
			if got := [2]bool{query, batch}; got != want {
				t.Fatalf("one-pass as query, batch: %v, want %v for %q", got, want, data)
			}
		})
	}
}

// readSeed reads one corpus file in the `go test fuzz v1` format with a
// single []byte value.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	if !ok || header != "go test fuzz v1" || !strings.HasPrefix(value, "[]byte(") || !strings.HasSuffix(value, ")") {
		t.Fatalf("%s: not a one-value corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(value, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestDecodeRequestMatchesStreamingDecoder drives whole requests through
// decodeRequest and through the streaming decoder it replaced: the same
// status and the same body, for bodies past the size cap too (one whose
// value ends before the cap is still decoded).
func TestDecodeRequestMatchesStreamingDecoder(t *testing.T) {
	pad := strings.Repeat(" ", maxBodyBytes+10)
	bodies := []string{
		`{"expr":"aatb","instance":[64,48,32],"strategy":"min-flops"}`,
		`{"expr":"aatb","instance":[64,48,32]} trailing`,
		`{"expr":"aatb","instance":[64,48,32]}` + pad,
		pad + `{"expr":"aatb"}`,
		`{"expr":"aatb","bogus":1}`,
		`{"Expr":"aatb"}`,
		``,
		`{"expr":`,
	}
	for _, body := range bodies {
		w0 := httptest.NewRecorder()
		var want queryRequest
		referenceDecode(w0, httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(body)), &want)
		w1 := httptest.NewRecorder()
		var got queryRequest
		decodeRequest(w1, httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(body)), new([]byte), &got, parseQueryRequest)
		short := body[:min(len(body), 60)]
		if w0.Code != w1.Code || w0.Body.String() != w1.Body.String() {
			t.Fatalf("%q: %d %s, streaming decoder %d %s", short, w1.Code, w1.Body, w0.Code, w0.Body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v, streaming decoder %#v", short, got, want)
		}
	}
}

// encodeJSON is the oracle: what json.NewEncoder(w).Encode writes.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// TestAppendBatchResponseMatchesEncoder runs random batch responses —
// items with and without a record, a result and an error, records with
// the escapes and float forms of every rule — through
// appendBatchResponse and encoding/json.
func TestAppendBatchResponseMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(0xba7c4))
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, 1.5, -2.25e-9, math.NaN(), math.Inf(-1)}
	strs := []string{"", "x", "<&>", "\u2028", "\xff", "a\"b", "\n"}
	rec := func() *engine.Record {
		return &engine.Record{
			Expr: strs[r.Intn(len(strs))], Instance: []int{r.Intn(100)}, Strategy: "min-flops",
			Selected:   engine.Candidate{Index: 1, Name: strs[r.Intn(len(strs))], Flops: floats[r.Intn(len(floats))]},
			Candidates: []engine.Candidate{}, Confidence: floats[r.Intn(len(floats))],
			Degraded: strs[r.Intn(len(strs))], Anomaly: r.Intn(2) == 0,
		}
	}
	for trial := 0; trial < 5000; trial++ {
		var resp batchResponse
		if r.Intn(10) > 0 {
			resp.Results = make([]batchItem, r.Intn(4))
		}
		for i := range resp.Results {
			it := &resp.Results[i]
			if r.Intn(2) == 0 {
				it.Record = rec()
			}
			if r.Intn(2) == 0 {
				it.Result = &batchResult{Rows: r.Intn(9), Cols: r.Intn(9), Fused: r.Intn(2) == 0, Checksum: floats[r.Intn(len(floats))]}
			}
			if r.Intn(2) == 0 {
				it.Error = strs[r.Intn(len(strs))]
			}
		}
		want, err := encodeJSON(&resp)
		got, ok := appendBatchResponse(nil, &resp)
		switch {
		case (err == nil) != ok:
			t.Fatalf("appendBatchResponse ok %v, encoding/json error %v", ok, err)
		case ok && !bytes.Equal(append(got, '\n'), want):
			t.Fatalf("appendBatchResponse wrote\n%s\nencoding/json wrote\n%s", got, want)
		}
	}
}

// TestServeBodiesMatchEncoder checks served bodies byte for byte against
// encoding/json's encoding of the same records, decoded back from them,
// for one query and for a computed batch, and that each carries its
// Content-Length.
func TestServeBodiesMatchEncoder(t *testing.T) {
	h := serveMux(engine.New(engine.Config{}))
	for _, c := range []struct {
		path, body string
		into       any
	}{
		{"/api/v1/query", `{"expr":"aatb","instance":[64,48,32]}`, new(engine.Record)},
		{"/api/v1/batch", `{"queries":[{"expr":"aatb","instance":[64,48,32]},{"expr":"nope","instance":[1]},{"expr":"gls","instance":[40,30,20,10]}],"compute":true}`, new(batchResponse)},
		{"/api/v1/batch", `{"queries":[]}`, new(batchResponse)},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.body, w.Code, w.Body)
		}
		if got := w.Header().Get("Content-Length"); got != fmt.Sprint(w.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for %d bytes", c.body, got, w.Body.Len())
		}
		if err := json.Unmarshal(w.Body.Bytes(), c.into); err != nil {
			t.Fatal(err)
		}
		want, err := encodeJSON(c.into)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("%s: served\n%s\nencoding/json\n%s", c.body, w.Body, want)
		}
	}
}

// serveQueryAllocsBudget bounds what one warm memo-hit query costs
// through serve's handler, httptest's request and recorder included:
// the largest count of six runs plus 10%.
const serveQueryAllocsBudget = 43 * 11 / 10

// TestServeQueryAllocsBudget pins the allocation count of a warm
// min-flops query through serve's handler whose bound set, prior and
// ranking are memoised.
func TestServeQueryAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	h := serveMux(engine.New(engine.Config{}))
	body := []byte(`{"expr":"aatb","instance":[64,48,32],"strategy":"min-flops"}`)
	serve := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve()
	serve()
	allocs := testing.AllocsPerRun(200, serve)
	t.Logf("%.0f allocations per warm memo-hit served query", allocs)
	if allocs > serveQueryAllocsBudget {
		t.Errorf("warm memo-hit served query makes %.0f allocations, budget %d", allocs, serveQueryAllocsBudget)
	}
}

// BenchmarkServeDecodeQuery times serve's decode of a canonical query
// body and of a 64-query batch body, in one pass and through
// encoding/json.
func BenchmarkServeDecodeQuery(b *testing.B) {
	query := []byte(`{"expr":"aatb","instance":[80,514,768],"strategy":"min-predicted","timeout_ms":250}`)
	var batch bytes.Buffer
	batch.WriteString(`{"queries":[`)
	for i := range 64 {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"expr":"aatb","instance":[%d,%d,%d],"strategy":"min-flops"}`, 64+i, 48+i, 32+i)
	}
	batch.WriteString(`],"compute":true}`)
	decodeBench(b, "query", query, parseQueryRequest)
	decodeBench(b, "batch-64", batch.Bytes(), parseBatchRequest)
}

func decodeBench[T any](b *testing.B, name string, body []byte, parse func([]byte, *T) bool) {
	for _, path := range []struct {
		name  string
		parse func([]byte, *T) bool
	}{{"one-pass", parse}, {"encoding-json", nil}} {
		b.Run(name+"/"+path.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var v T
				if err := decodeBody(body, nil, &v, path.parse); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeQueryMemoHit times one warm memo-hit query through
// serve's handler (httptest's request and recorder included), for
// min-flops without profiles and min-predicted over the CI profile.
func BenchmarkServeQueryMemoHit(b *testing.B) {
	set, meta, err := profile.ReadFile(filepath.Join("..", "..", "testdata", "profile-ci.json"))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		strategy string
		cfg      engine.Config
	}{
		{"min-flops", engine.Config{}},
		{"min-predicted", engine.Config{Profiles: set, ProfileMeta: meta}},
	} {
		b.Run(c.strategy, func(b *testing.B) {
			h := serveMux(engine.New(c.cfg))
			body := []byte(`{"expr":"aatb","instance":[80,514,768],"strategy":"` + c.strategy + `"}`)
			b.ReportAllocs()
			for b.Loop() {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequestWithContext(context.Background(), http.MethodPost, "/api/v1/query", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}
