package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/faultinject"
	"lamb/internal/kernels"
	"lamb/internal/profile"
)

// These tests cover the serving robustness layer: readiness, admission
// control, deadlines, panic recovery, hot reload, and the batch cap.
// Failpoint-armed tests share the faultinject globals, so none of them
// run in parallel.

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// postJSONRaw is postJSON without the testing.T, safe from goroutines.
func postJSONRaw(url string, body any) (*http.Response, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(buf)))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, out, nil
}

func TestServeHealthzReadyStates(t *testing.T) {
	s := newServer(engine.New(engine.Config{}), serveOptions{MaxInflight: 1})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)

	var h struct {
		Ok     bool   `json:"ok"`
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if resp := getJSON(t, srv.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || !h.Ok || !h.Ready {
		t.Fatalf("idle server not ready: %d %+v", resp.StatusCode, h)
	}

	// Mid-reload: live but not ready.
	s.reloading.Store(true)
	if resp := getJSON(t, srv.URL+"/healthz", &h); resp.StatusCode != http.StatusServiceUnavailable || !h.Ok || h.Ready || !strings.Contains(h.Reason, "reload") {
		t.Fatalf("reloading server: %d %+v", resp.StatusCode, h)
	}
	s.reloading.Store(false)

	// Saturated: live but not ready.
	s.sem <- struct{}{}
	if resp := getJSON(t, srv.URL+"/healthz", &h); resp.StatusCode != http.StatusServiceUnavailable || h.Ready || !strings.Contains(h.Reason, "saturated") {
		t.Fatalf("saturated server: %d %+v", resp.StatusCode, h)
	}
	<-s.sem
	if resp := getJSON(t, srv.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || !h.Ready {
		t.Fatalf("server did not recover readiness: %d %+v", resp.StatusCode, h)
	}
}

// TestServeShedsWhenSaturated is the admission-control acceptance pin:
// with the in-flight limit reached, the next query is rejected within
// 100ms with 503 + Retry-After instead of queueing, and the shed is
// counted in /api/stats.
func TestServeShedsWhenSaturated(t *testing.T) {
	if err := faultinject.Arm("engine.query", "sleep:500ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	s := newServer(engine.New(engine.Config{}), serveOptions{MaxInflight: 1})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)

	// Occupy the only slot with a slow query.
	slow := make(chan struct{})
	go func() {
		defer close(slow)
		resp, _, err := postJSONRaw(srv.URL+"/api/query", engine.Query{Expr: "aatb", Instance: []int{10, 20, 30}})
		if err == nil && resp.StatusCode != http.StatusOK {
			t.Errorf("slow query status %d", resp.StatusCode)
		}
	}()
	for i := 0; len(s.sem) == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(s.sem) == 0 {
		t.Fatal("slow query never occupied the semaphore")
	}

	start := time.Now()
	resp, body := postJSON(t, srv.URL+"/api/query", engine.Query{Expr: "aatb", Instance: []int{11, 21, 31}})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated query status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v, want under 100ms", elapsed)
	}
	var stats serveStats
	getJSON(t, srv.URL+"/api/stats", &stats)
	if stats.Server.Shed != 1 || stats.Server.MaxInflight != 1 {
		t.Fatalf("server stats %+v", stats.Server)
	}
	<-slow
}

// TestServeQueryDeadline504 pins the deadline path over HTTP: a query
// whose timeout_ms expires fails promptly with 504, not 400, and not a
// hang for the query's natural duration.
func TestServeQueryDeadline504(t *testing.T) {
	if err := faultinject.Arm("engine.query", "sleep:5s"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	srv := newTestServer(t)

	start := time.Now()
	resp, body := postJSON(t, srv.URL+"/api/query", map[string]any{
		"expr": "aatb", "instance": []int{10, 20, 30}, "timeout_ms": 20,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline query took %v", elapsed)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "deadline") {
		t.Fatalf("error body %s", body)
	}
}

// slowServeExecutor delays each repetition so a deadline can expire
// mid-measurement (mirrors the engine package's slowExecutor).
type slowServeExecutor struct {
	exec.Executor
	delay time.Duration
}

func (s slowServeExecutor) TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64 {
	time.Sleep(s.delay)
	return s.Executor.TimeAlgorithm(alg, rep)
}

func (s slowServeExecutor) TimeCallCold(call kernels.Call, rep uint64) float64 {
	time.Sleep(s.delay)
	return s.Executor.TimeCallCold(call, rep)
}

// TestServeDeadlineDegradesOracle: an oracle query with a too-tight
// deadline still answers 200 — degraded to min-flops, with the reason
// in the record and the degradation counted.
func TestServeDeadlineDegradesOracle(t *testing.T) {
	srv := httptest.NewServer(newServer(engine.New(engine.Config{
		Executor: slowServeExecutor{exec.NewDefaultSimulated(), 30 * time.Millisecond},
		Reps:     3,
	}), serveOptions{}).handler())
	t.Cleanup(srv.Close)
	resp, body := postJSON(t, srv.URL+"/api/query", map[string]any{
		"expr": "aatb", "instance": []int{10, 20, 30}, "strategy": "oracle", "timeout_ms": 15,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rec engine.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Strategy != "min-flops" || rec.Requested != "oracle" || rec.Degraded != engine.DegradedDeadline {
		t.Fatalf("record not degraded: %+v", rec)
	}
	var stats serveStats
	getJSON(t, srv.URL+"/api/stats", &stats)
	if stats.DegradedQueries != 1 {
		t.Fatalf("degraded_queries %d", stats.DegradedQueries)
	}
}

// TestServePanicRecovered: a handler panic becomes a 500 and a counter;
// the server keeps serving.
func TestServePanicRecovered(t *testing.T) {
	if err := faultinject.Arm("serve.query", "panic"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	srv := newTestServer(t)

	resp, body := postJSON(t, srv.URL+"/api/query", engine.Query{Expr: "aatb", Instance: []int{10, 20, 30}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking query status %d: %s", resp.StatusCode, body)
	}
	faultinject.Reset()
	resp, body = postJSON(t, srv.URL+"/api/query", engine.Query{Expr: "aatb", Instance: []int{10, 20, 30}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d %s", resp.StatusCode, body)
	}
	var stats serveStats
	getJSON(t, srv.URL+"/api/stats", &stats)
	if stats.Server.Panics != 1 {
		t.Fatalf("panics counter %d", stats.Server.Panics)
	}
}

// TestServeBatchCapped: a batch beyond the limit is rejected whole with
// 400 before any query runs.
func TestServeBatchCapped(t *testing.T) {
	srv := newTestServer(t)
	req := batchRequest{Queries: make([]engine.Query, maxBatchQueries+1)}
	for i := range req.Queries {
		req.Queries[i] = engine.Query{Expr: "aatb", Instance: []int{10, 20, 30}}
	}
	resp, body := postJSON(t, srv.URL+"/api/batch", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d", resp.StatusCode)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "1024") {
		t.Fatalf("error body %s", body)
	}
	var stats serveStats
	getJSON(t, srv.URL+"/api/stats", &stats)
	if stats.Queries != 0 {
		t.Fatalf("rejected batch ran %d queries", stats.Queries)
	}
	// A batch within the limit runs.
	req.Queries = req.Queries[:2]
	if resp, body := postJSON(t, srv.URL+"/api/batch", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch status %d: %s", resp.StatusCode, body)
	}
}

// TestServeDegradedWithoutProfiles: the degradation ladder over HTTP —
// min-predicted without a store answers 200 with the record stamped.
func TestServeDegradedWithoutProfiles(t *testing.T) {
	srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/api/query", engine.Query{
		Expr: "aatb", Instance: []int{80, 514, 768}, Strategy: "min-predicted",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rec engine.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Strategy != "min-flops" || rec.Requested != "min-predicted" || rec.Degraded != engine.DegradedNoProfile {
		t.Fatalf("record %+v", rec)
	}
	var stats serveStats
	getJSON(t, srv.URL+"/api/stats", &stats)
	if stats.DegradedQueries != 1 {
		t.Fatalf("degraded_queries %d", stats.DegradedQueries)
	}
}

// writeTestProfileStore measures a small sim-backend store and persists
// it, returning the path it can be reloaded from.
func writeTestProfileStore(t *testing.T, name string) string {
	t.Helper()
	timer := exec.NewTimer(exec.NewDefaultSimulated())
	timer.Reps = 2
	set := profile.MeasureSet(timer, 2)
	path := filepath.Join(t.TempDir(), name)
	meta := profile.Meta{Source: name, Backend: timer.Exec.Name(), Reps: 2, GridPoints: 2}
	if err := profile.WriteFile(path, set, meta); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeAdminReload drives the hot-reload endpoint: the store is
// re-read from disk and swapped in, the generation climbs, and serving
// without -profile rejects the reload.
func TestServeAdminReload(t *testing.T) {
	path := writeTestProfileStore(t, "reload-test.json")
	set, meta, err := profile.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Profiles: set, ProfileMeta: meta})
	s := newServer(eng, serveOptions{ProfilePath: path, Backend: exec.NewDefaultSimulated().Name()})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)

	var out struct {
		Ok         bool   `json:"ok"`
		Profile    string `json:"profile"`
		Generation uint64 `json:"generation"`
	}
	resp, body := postJSON(t, srv.URL+"/api/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Ok || out.Generation != 2 {
		t.Fatalf("reload response %+v", out)
	}
	var stats serveStats
	getJSON(t, srv.URL+"/api/stats", &stats)
	if stats.Profile == nil || stats.Profile.Generation != 2 {
		t.Fatalf("stats profile %+v", stats.Profile)
	}

	// Without -profile there is nothing to reload.
	bare := newTestServer(t)
	if resp, _ := postJSON(t, bare.URL+"/api/admin/reload", struct{}{}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("profile-less reload status %d", resp.StatusCode)
	}
}

// TestServeShutdownDrainsInflight is the graceful-shutdown pin: a query
// in flight when Shutdown begins completes with 200; the server stops
// only after it drains.
func TestServeShutdownDrainsInflight(t *testing.T) {
	if err := faultinject.Arm("engine.query", "sleep:250ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	s := newServer(engine.New(engine.Config{}), serveOptions{MaxInflight: 4})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)

	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, _, err := postJSONRaw(srv.URL+"/api/query", engine.Query{Expr: "aatb", Instance: []int{10, 20, 30}})
		if err != nil {
			resc <- result{0, err}
			return
		}
		resc <- result{resp.StatusCode, nil}
	}()
	// Wait until the query holds an in-flight slot.
	for i := 0; len(s.sem) == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(s.sem) == 0 {
		t.Fatal("query never became in-flight")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Config.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res := <-resc
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("in-flight query during shutdown: status %d err %v", res.status, res.err)
	}
}

// TestServeBootRestoreOutcomes drives server.restoreOutcomes: a
// snapshot on disk is restored into the engine at boot, a missing file
// is a clean fresh start, and a corrupt file refuses to boot.
func TestServeBootRestoreOutcomes(t *testing.T) {
	srv, eng := newProfiledTestServer(t)
	for alg := 1; alg <= 2; alg++ {
		resp, out := postJSON(t, srv.URL+"/api/feedback", engine.Feedback{
			Expr: "aatb", Instance: []int{80, 514, 768}, Algorithm: alg, Seconds: 1e-3,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback: %d %s", resp.StatusCode, out)
		}
	}
	path := filepath.Join(t.TempDir(), "outcomes.json")
	if err := eng.SnapshotOutcomes().WriteFile(path); err != nil {
		t.Fatal(err)
	}

	timer := exec.NewTimer(exec.NewDefaultSimulated())
	timer.Reps = 2
	eng2 := engine.New(engine.Config{
		Profiles:    profile.MeasureSet(timer, 2),
		ProfileMeta: profile.Meta{Source: "test-profile.json"},
	})
	s2 := newServer(eng2, serveOptions{OutcomesPath: path})
	if err := s2.restoreOutcomes(); err != nil {
		t.Fatal(err)
	}
	if s := eng2.Stats(); s.FeedbackRestored != 2 || s.FeedbackInstances != 1 {
		t.Fatalf("restore counters FeedbackRestored=%d FeedbackInstances=%d", s.FeedbackRestored, s.FeedbackInstances)
	}

	// Missing file: fresh start, no error.
	s3 := newServer(engine.New(engine.Config{}), serveOptions{OutcomesPath: filepath.Join(t.TempDir(), "absent.json")})
	if err := s3.restoreOutcomes(); err != nil {
		t.Fatalf("missing snapshot: %v", err)
	}
	// Corrupt file: boot refuses rather than serving without the memory.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	s4 := newServer(engine.New(engine.Config{}), serveOptions{OutcomesPath: bad})
	if err := s4.restoreOutcomes(); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestServeReloadRaceUnderTraffic races hot reloads against query
// traffic (run under -race in CI): every query answers, every reload
// succeeds, and the generation counts them all.
func TestServeReloadRaceUnderTraffic(t *testing.T) {
	path := writeTestProfileStore(t, "race-reload.json")
	set, meta, err := profile.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Profiles: set, ProfileMeta: meta})
	s := newServer(eng, serveOptions{ProfilePath: path, Backend: exec.NewDefaultSimulated().Name()})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)

	const reloads = 8
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, body, err := postJSONRaw(srv.URL+"/api/query", engine.Query{
					Expr: "aatb", Instance: []int{20 + w, 30 + i, 40}, Strategy: "min-predicted",
				})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query during reload: %d %s", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			resp, body, err := postJSONRaw(srv.URL+"/api/admin/reload", struct{}{})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload %d: %d %s", i, resp.StatusCode, body)
				return
			}
		}
	}()
	wg.Wait()
	var stats serveStats
	getJSON(t, srv.URL+"/api/stats", &stats)
	if stats.Profile == nil || stats.Profile.Generation != reloads+1 {
		t.Fatalf("generation %+v, want %d", stats.Profile, reloads+1)
	}
}

// TestServeRejectsExperimentFlags checks that serve registers only the
// flags it reads: each experiment flag fails at parse time instead of
// being accepted and ignored.
func TestServeRejectsExperimentFlags(t *testing.T) {
	for _, name := range []string{"-expr", "-scale", "-seed", "-workers", "-out"} {
		_, err := tryStartServeProc(t, nil, "-addr", "127.0.0.1:0", name, "1")
		if want := "flag provided but not defined: " + name; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("serve %s 1: err %v, want %q", name, err, want)
		}
	}
}
