package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"lamb"
	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/profile"
	"lamb/internal/router"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(serveMux(engine.New(engine.Config{})))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestServeHealthAndExpressions(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	// The listing's set sizes are the enumerated sets' lengths; the
	// legacy alias serves the same body.
	const want = `[{"name":"aatb","arity":3,"num_algorithms":5},` +
		`{"name":"aatbc","arity":4,"num_algorithms":15},` +
		`{"name":"atab","arity":3,"num_algorithms":5},` +
		`{"name":"chain","arity":5,"num_algorithms":6},` +
		`{"name":"gls","arity":4,"num_algorithms":8},` +
		`{"name":"lstsq","arity":3,"num_algorithms":4}]` + "\n"
	for _, path := range []string{"/api/v1/expressions", "/api/expressions"} {
		resp, err = http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("%s: status %d body %s, want %s", path, resp.StatusCode, body, want)
		}
	}
}

func TestServeQueryRecord(t *testing.T) {
	srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/api/query", engine.Query{
		Expr: "aatb", Instance: []int{80, 514, 768},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rec engine.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Expr != "aatb" || rec.Strategy != "min-flops" || rec.Selected.Index != 1 {
		t.Fatalf("record %+v", rec)
	}
	if rec.Selected.Flops != 13_161_120 || rec.NumAlgorithms != 5 {
		t.Fatalf("record %+v", rec)
	}
	// The confidence header parses back to exactly the body's value.
	hdr := resp.Header.Get(router.ConfidenceHeader)
	if c, err := strconv.ParseFloat(hdr, 64); err != nil || math.Float64bits(c) != math.Float64bits(rec.Confidence) {
		t.Fatalf("%s %q (%v), body confidence %v", router.ConfidenceHeader, hdr, err, rec.Confidence)
	}
	// The wire format is the engine record verbatim: round-tripping
	// through the endpoint changes nothing.
	direct := engine.New(engine.Config{}).Do(context.Background(), engine.Request{
		Queries: []engine.Query{{Expr: "aatb", Instance: []int{80, 514, 768}}},
	})[0]
	if direct.Err != nil {
		t.Fatal(direct.Err)
	}
	if !reflect.DeepEqual(&rec, direct.Record) {
		t.Fatalf("served record differs from direct engine record:\n%+v\n%+v", rec, direct.Record)
	}
}

func TestServeQueryErrors(t *testing.T) {
	srv := newTestServer(t)
	for name, body := range map[string]any{
		"unknown expression": engine.Query{Expr: "nope", Instance: []int{1, 2, 3}},
		"bad arity":          engine.Query{Expr: "aatb", Instance: []int{1}},
		"bad strategy":       engine.Query{Expr: "aatb", Instance: []int{2, 3, 4}, Strategy: "magic"},
		"unknown field":      map[string]any{"exprs": "aatb"},
	} {
		resp, out := postJSON(t, srv.URL+"/api/query", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, resp.StatusCode, out)
		}
		var e map[string]string
		if err := json.Unmarshal(out, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %s", name, out)
		}
	}
}

func TestServeBatchConcurrent(t *testing.T) {
	// The serve acceptance check: concurrent batches with overlapping
	// identical queries answer correctly under -race.
	srv := newTestServer(t)
	req := batchRequest{}
	for i := 0; i < 10; i++ {
		req.Queries = append(req.Queries, engine.Query{
			Expr: "gls", Instance: []int{10 + i%3, 20, 30, 40},
		})
	}
	req.Queries = append(req.Queries, engine.Query{Expr: "broken", Instance: []int{1}})

	const clients = 6
	var wg sync.WaitGroup
	results := make([]batchResponse, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+"/api/batch", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&results[w]); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < clients; w++ {
		res := results[w].Results
		if len(res) != len(req.Queries) {
			t.Fatalf("client %d: %d results", w, len(res))
		}
		for i := 0; i < 10; i++ {
			if res[i].Error != "" || res[i].Record == nil {
				t.Fatalf("client %d query %d: %+v", w, i, res[i])
			}
			if res[i].Record.Expr != "gls" || res[i].Record.NumAlgorithms != 8 {
				t.Fatalf("client %d query %d record %+v", w, i, res[i].Record)
			}
		}
		if res[10].Error == "" {
			t.Fatalf("client %d: broken query succeeded", w)
		}
		if !reflect.DeepEqual(results[0].Results, res) {
			t.Fatalf("client %d diverges from client 0", w)
		}
	}
}

func TestServeStatsReflectCaches(t *testing.T) {
	srv := newTestServer(t)
	q := engine.Query{Expr: "chain", Instance: []int{3, 5, 7, 11, 13}}
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, srv.URL+"/api/query", q); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %s", i, body)
		}
	}
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var s engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s.Queries != 3 {
		t.Fatalf("queries %d", s.Queries)
	}
	if s.Bindings.Hits < 2 || s.Bindings.Misses != 1 {
		t.Fatalf("bindings %+v", s.Bindings)
	}
	if s.Backend == "" {
		t.Fatal("backend missing")
	}
}

func TestServeMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/api/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/query status %d", resp.StatusCode)
	}
}

// newProfiledTestServer serves an engine with measured sim-backend
// profiles, as `lamb serve -profile` does after loading a store.
func newProfiledTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	timer := exec.NewTimer(exec.NewDefaultSimulated())
	timer.Reps = 2
	eng := engine.New(engine.Config{
		Profiles:    profile.MeasureSet(timer, 2),
		ProfileMeta: profile.Meta{Source: "test-profile.json"},
	})
	srv := httptest.NewServer(serveMux(eng))
	t.Cleanup(srv.Close)
	return srv, eng
}

// TestServeFeedbackLoop drives the serving-time learner end to end over
// HTTP: adaptive query, contradicting feedback, switched selection,
// moving counters — what the CI serve smoke asserts with curl and jq.
func TestServeFeedbackLoop(t *testing.T) {
	srv, _ := newProfiledTestServer(t)
	q := engine.Query{Expr: "aatb", Instance: []int{80, 514, 768}, Strategy: "adaptive"}
	resp, body := postJSON(t, srv.URL+"/api/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive query status %d: %s", resp.StatusCode, body)
	}
	var first engine.Record
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Profile != "test-profile.json" {
		t.Fatalf("record profile %q", first.Profile)
	}
	for alg := 1; alg <= first.NumAlgorithms; alg++ {
		sec := 1e-6
		if alg == first.Selected.Index {
			sec = 10.0
		}
		for rep := 0; rep < 3; rep++ {
			resp, out := postJSON(t, srv.URL+"/api/feedback", engine.Feedback{
				Expr: "aatb", Instance: []int{80, 514, 768}, Algorithm: alg, Seconds: sec,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("feedback status %d: %s", resp.StatusCode, out)
			}
		}
	}
	resp, body = postJSON(t, srv.URL+"/api/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-query status %d", resp.StatusCode)
	}
	var second engine.Record
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Selected.Index == first.Selected.Index {
		t.Fatalf("served adaptive selection did not move off algorithm %d", first.Selected.Index)
	}
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var s engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s.Feedback != uint64(3*first.NumAlgorithms) || s.FeedbackInstances != 1 {
		t.Fatalf("feedback counters %+v", s)
	}
	if s.AdaptiveQueries != 2 || s.AdaptiveInformed != 1 {
		t.Fatalf("adaptive counters %+v", s)
	}
	if s.Profile == nil || s.Profile.ID != "test-profile.json" {
		t.Fatalf("stats profile %+v", s.Profile)
	}
}

func TestServeFeedbackErrors(t *testing.T) {
	srv, _ := newProfiledTestServer(t)
	for name, body := range map[string]any{
		"unknown expression": engine.Feedback{Expr: "nope", Instance: []int{1, 2, 3}, Algorithm: 1, Seconds: 1},
		"bad index":          engine.Feedback{Expr: "aatb", Instance: []int{80, 514, 768}, Algorithm: 99, Seconds: 1},
		"bad seconds":        engine.Feedback{Expr: "aatb", Instance: []int{80, 514, 768}, Algorithm: 1, Seconds: -1},
		"unknown field":      map[string]any{"exprs": "aatb"},
	} {
		resp, out := postJSON(t, srv.URL+"/api/feedback", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, resp.StatusCode, out)
		}
	}
}

// TestServeProfileFixtureLoads pins the committed CI fixture: the store
// the serve smoke starts from must stay loadable and complete.
func TestServeProfileFixtureLoads(t *testing.T) {
	set, meta, err := profile.ReadFile(filepath.Join("..", "..", "testdata", "profile-ci.json"))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Backend == "" || meta.GridPoints < 2 {
		t.Fatalf("fixture meta %+v", meta)
	}
	for kind := lamb.KernelKind(0); int(kind) < lamb.NumKernelKinds; kind++ {
		if set.Profile(kind) == nil {
			t.Fatalf("fixture missing %v profile", kind)
		}
	}
}

func TestCmdSelectInstanceJSON(t *testing.T) {
	// The CLI path: lamb select -instance ... -json emits the engine
	// record on stdout.
	old := stdoutCapture(t)
	err := cmdSelect([]string{"-expr", "aatb", "-instance", "80,514,768", "-json"})
	body := old()
	if err != nil {
		t.Fatal(err)
	}
	var rec engine.Record
	if jerr := json.Unmarshal(body, &rec); jerr != nil {
		t.Fatalf("%v in %q", jerr, body)
	}
	if rec.Expr != "aatb" || rec.Selected.Index != 1 || rec.Selected.Flops != 13_161_120 {
		t.Fatalf("record %+v", rec)
	}
	if rec.Strategy != "min-flops" || len(rec.Candidates) != 5 {
		t.Fatalf("record %+v", rec)
	}
}

func TestCmdSelectInstanceTable(t *testing.T) {
	old := stdoutCapture(t)
	err := cmdSelect([]string{"-expr", "chain", "-instance", "331,279,338,854,427"})
	body := old()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("algorithm 2 of 6")) && !bytes.Contains(body, []byte("<==")) {
		t.Fatalf("table output %q", body)
	}
}

func TestCmdSelectJSONRequiresInstance(t *testing.T) {
	if err := cmdSelect([]string{"-expr", "aatb", "-json"}); err == nil {
		t.Fatal("-json without -instance accepted")
	}
}

// stdoutCapture redirects os.Stdout and returns a closure that restores
// it and yields everything written.
func stdoutCapture(t *testing.T) func() []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	return func() []byte {
		w.Close()
		os.Stdout = orig
		return <-done
	}
}

func TestServeBatchCompute(t *testing.T) {
	// compute mode on a measured backend: each item carries a result
	// block, every query runs alone, so identical queries of one batch
	// get one checksum, and checksums are deterministic across requests.
	srv := httptest.NewServer(serveMux(engine.New(engine.Config{Executor: exec.NewMeasured()})))
	t.Cleanup(srv.Close)
	req := batchRequest{Compute: true}
	for i := 0; i < 4; i++ {
		req.Queries = append(req.Queries, engine.Query{Expr: "aatb", Instance: []int{12, 16, 8}})
	}
	resp, body := postJSON(t, srv.URL+"/api/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(req.Queries) {
		t.Fatalf("%d results", len(out.Results))
	}
	for i, item := range out.Results {
		if item.Error != "" || item.Record == nil || item.Result == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
		if item.Result.Rows <= 0 || item.Result.Cols <= 0 {
			t.Errorf("item %d: degenerate result shape %+v", i, item.Result)
		}
		if item.Result.Checksum != out.Results[0].Result.Checksum {
			t.Errorf("item %d: checksum %v, item 0's %v; one query computes one result", i, item.Result.Checksum, out.Results[0].Result.Checksum)
		}
	}
	// The v1 batch body keeps its "fused" key, always false.
	if n := bytes.Count(body, []byte(`"fused":false`)); n != len(req.Queries) {
		t.Errorf(`%d items carry "fused":false, want %d`, n, len(req.Queries))
	}
	resp, body2 := postJSON(t, srv.URL+"/api/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request status %d", resp.StatusCode)
	}
	var out2 batchResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	for i := range out.Results {
		if out2.Results[i].Result.Checksum != out.Results[i].Result.Checksum {
			t.Errorf("item %d not deterministic across requests", i)
		}
	}
	// The stats body keeps its fused keys, always zero.
	sresp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		FusedQueries *uint64           `json:"fused_queries"`
		FuseRejected map[string]uint64 `json:"fuse_rejected"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if s.FusedQueries == nil || *s.FusedQueries != 0 {
		t.Errorf("fused_queries = %v, want 0", s.FusedQueries)
	}
	want := map[string]uint64{"too_big_arena": 0, "unregistered": 0, "hetero_prepadding": 0}
	if !reflect.DeepEqual(s.FuseRejected, want) {
		t.Errorf("fuse_rejected = %v, want %v", s.FuseRejected, want)
	}
}

// TestServeMemoisedRecordMatchesSelectJSON pins the rank memo across
// transports, for every strategy: a repeated served query (answered
// from the bound set's memoised ranking) is byte-identical to the first
// one and to the record `lamb select -json` prints from a fresh
// process. Oracle measurements on the simulated backend are
// deterministic at equal repetition counts, so both engines use the
// CLI's default of 10.
func TestServeMemoisedRecordMatchesSelectJSON(t *testing.T) {
	fixture := filepath.Join("..", "..", "testdata", "profile-ci.json")
	set, meta, err := profile.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"min-flops", "min-predicted", "adaptive", "oracle"} {
		t.Run(strat, func(t *testing.T) {
			srv := httptest.NewServer(serveMux(engine.New(engine.Config{Profiles: set, ProfileMeta: meta, Reps: 10})))
			t.Cleanup(srv.Close)
			q := engine.Query{Expr: "gls", Instance: []int{40, 30, 20, 10}, Strategy: strat}
			_, first := postJSON(t, srv.URL+"/api/v1/query", q)
			_, again := postJSON(t, srv.URL+"/api/v1/query", q)
			if !bytes.Equal(first, again) {
				t.Fatalf("memoised record differs:\n%s\n%s", first, again)
			}

			old := stdoutCapture(t)
			err := cmdSelect([]string{"-expr", "gls", "-instance", "40,30,20,10",
				"-strategy", strat, "-profile", fixture, "-reps", "10", "-json"})
			cli := old()
			if err != nil {
				t.Fatal(err)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, cli); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(compact.Bytes(), bytes.TrimSpace(first)) {
				t.Fatalf("served record differs from select -json:\n%s\n%s", first, compact.Bytes())
			}
		})
	}
}
