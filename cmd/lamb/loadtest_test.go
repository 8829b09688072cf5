package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"lamb/internal/cache"
	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/router"
)

// TestLoadtestAgainstServeBatch drives the loadtest generator against an
// in-process serve handler in batch mode and checks the traffic actually
// flowed: queries answered, duplicates coalesced within batches, and no
// request errors (cmdLoadtest fails on any).
func TestLoadtestAgainstServeBatch(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := httptest.NewServer(serveMux(eng))
	defer srv.Close()
	err := cmdLoadtest([]string{
		"-target", srv.URL, "-duration", "200ms", "-concurrency", "2",
		"-batch", "8", "-spread", "3", "-expr", "aatb", "-instance", "16,8,8",
	})
	if err != nil {
		t.Fatalf("cmdLoadtest: %v", err)
	}
	s := eng.Stats()
	if s.Queries == 0 {
		t.Error("no queries reached the engine")
	}
	// Batches of 8 over 3 distinct instances coalesce 5 duplicates each.
	if s.Coalesced == 0 {
		t.Error("batched duplicates were not coalesced")
	}
}

// TestLoadtestAgainstServeQuery covers the single-query mode and the
// unreachable-target error path.
func TestLoadtestAgainstServeQuery(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := httptest.NewServer(serveMux(eng))
	defer srv.Close()
	err := cmdLoadtest([]string{
		"-target", srv.URL, "-duration", "100ms", "-concurrency", "1",
		"-expr", "chain", "-instance", "8,8,8,8,8",
	})
	if err != nil {
		t.Fatalf("cmdLoadtest: %v", err)
	}
	if eng.Stats().Queries == 0 {
		t.Error("no queries reached the engine")
	}
	srv.Close()
	if err := cmdLoadtest([]string{"-target", srv.URL, "-duration", "50ms"}); err == nil {
		t.Error("unreachable target did not fail")
	}
}

// TestLoadtestOpenLoop runs the -rate open-loop mode (both arrival
// processes) against an in-process serve and checks arrivals were
// scheduled and answered, plus the flag validation paths.
func TestLoadtestOpenLoop(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := httptest.NewServer(serveMux(eng))
	defer srv.Close()
	for _, arrivals := range []string{"uniform", "poisson"} {
		err := cmdLoadtest([]string{
			"-target", srv.URL, "-duration", "250ms", "-rate", "200",
			"-arrivals", arrivals, "-expr", "aatb", "-instance", "16,8,8",
		})
		if err != nil {
			t.Fatalf("open loop (%s arrivals): %v", arrivals, err)
		}
	}
	if eng.Stats().Queries == 0 {
		t.Error("no queries reached the engine")
	}
	for _, bad := range [][]string{
		{"-target", srv.URL, "-rate", "-1"},
		{"-target", srv.URL, "-rate", "100", "-max-outstanding", "0"},
		{"-target", srv.URL, "-arrivals", "bursty"},
	} {
		if err := cmdLoadtest(bad); err == nil {
			t.Errorf("args %v did not fail", bad)
		}
	}
}

// TestLoadtestHonorsRetryAfter scripts a server that sheds each client's
// first attempt with a 503 + Retry-After: 0 and serves the retry. With
// the retry budget on, every request must eventually succeed (cmdLoadtest
// errors otherwise) — the generator slept as told instead of counting
// the shed as terminal.
func TestLoadtestHonorsRetryAfter(t *testing.T) {
	eng := engine.New(engine.Config{})
	mux := serveMux(eng)
	var hits atomic.Uint64
	var sheds atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/query" && hits.Add(1)%2 == 1 {
			sheds.Add(1)
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shedding", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()
	err := cmdLoadtest([]string{
		"-target", srv.URL, "-duration", "150ms", "-concurrency", "1",
		"-retry-503", "2", "-expr", "aatb", "-instance", "16,8,8",
	})
	if err != nil {
		t.Fatalf("cmdLoadtest with Retry-After shedding: %v", err)
	}
	if sheds.Load() == 0 {
		t.Fatal("server never shed — test exercised nothing")
	}
	if eng.Stats().Queries == 0 {
		t.Error("no retried queries reached the engine")
	}
}

// TestLoadtestBatchMix drives -batch-mix against a measured-backend serve:
// every batch carries compute-mode queries with dimensions sampled inside
// the base instance's octave, and its queries must reach the engine.
// Also covers the flag validation: -batch-mix without -batch > 1 is an
// error.
func TestLoadtestBatchMix(t *testing.T) {
	eng := engine.New(engine.Config{Executor: exec.NewMeasured()})
	srv := httptest.NewServer(serveMux(eng))
	defer srv.Close()
	err := cmdLoadtest([]string{
		"-target", srv.URL, "-duration", "300ms", "-concurrency", "2",
		"-batch", "6", "-batch-mix", "-spread", "4", "-expr", "aatb", "-instance", "16,8,8",
	})
	if err != nil {
		t.Fatalf("cmdLoadtest -batch-mix: %v", err)
	}
	s := eng.Stats()
	if s.Queries == 0 {
		t.Fatal("no queries reached the engine")
	}
	if err := cmdLoadtest([]string{"-target", srv.URL, "-batch-mix"}); err == nil {
		t.Error("-batch-mix without -batch > 1 did not fail")
	}
}

// TestLoadtestStatsReport checks the closing report's two shapes: the
// engine's cache layers and query counters for a serve, the forward
// ladder's counters for a router, each as the run's delta.
func TestLoadtestStatsReport(t *testing.T) {
	t.Run("serve", func(t *testing.T) {
		before := targetStats{engine: engine.Stats{Queries: 10, Bindings: cache.Stats{Hits: 4, Misses: 1}}}
		after := targetStats{engine: engine.Stats{Queries: 25, Bindings: cache.Stats{Hits: 16, Misses: 4}}}
		var out bytes.Buffer
		if err := writeStatsReport(&out, before, after); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"engine layer", "bindings      12    3       80.0%", "queries 15 "} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("serve report lacks %q:\n%s", want, out.String())
			}
		}
	})
	t.Run("router", func(t *testing.T) {
		before := targetStats{router: &router.Stats{Forwards: 5, Retries: 1}}
		after := targetStats{router: &router.Stats{Forwards: 105, Retries: 3, Hedged: 7, DegradedQueries: 2}}
		var out bytes.Buffer
		if err := writeStatsReport(&out, before, after); err != nil {
			t.Fatal(err)
		}
		want := "router            delta\n-----------------------\nforwards          100\nretries           2\nhedged            7\ndegraded_queries  2\n"
		if out.String() != want {
			t.Errorf("router report:\n%s\nwant:\n%s", out.String(), want)
		}
	})
}

// TestLoadtestAgainstRouter drives the generator through a router in
// front of a serve: the stats sample is read as a router's, and its
// forwards count the run's requests.
func TestLoadtestAgainstRouter(t *testing.T) {
	backend := httptest.NewServer(serveMux(engine.New(engine.Config{})))
	defer backend.Close()
	rt, err := router.New(router.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	if err := cmdLoadtest([]string{
		"-target", front.URL, "-duration", "100ms", "-concurrency", "1", "-expr", "aatb", "-instance", "16,8,8",
	}); err != nil {
		t.Fatalf("cmdLoadtest through a router: %v", err)
	}
	s, err := fetchStats(http.DefaultClient, front.URL)
	if err != nil || s.router == nil || s.router.Forwards == 0 {
		t.Fatalf("router stats sample %+v, %v", s, err)
	}
	if s, err := fetchStats(http.DefaultClient, backend.URL); err != nil || s.router != nil || s.engine.Queries == 0 {
		t.Fatalf("serve stats sample %+v, %v", s, err)
	}
}

// TestPercentileNearestRank pins percentile to the nearest rank
// ⌈p·n⌉: a high quantile of a whole number of ranks is that rank, not
// the maximum.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1000, 0.999, 999},
		{100, 0.99, 99},
		{10, 0.9, 9},
		{2, 0.5, 1},
		{1000, 1, 1000},
		{1, 0.5, 1},
		{1, 1, 1},
		{0, 0.5, 0},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}
