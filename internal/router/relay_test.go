package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lamb/internal/engine"
)

// idleConns counts the connections pooled for one backend.
func idleConns(rt *Router, url string) int {
	p := rt.byURL[url].conns
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// connTracker counts a test server's connections as they open and close.
type connTracker struct {
	opened   atomic.Int64
	closedCh chan struct{}
}

func trackConns(srv *httptest.Server) *connTracker {
	// The buffer outlasts any test's connection count, so the server's
	// ConnState hook never blocks.
	ct := &connTracker{closedCh: make(chan struct{}, 64)}
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			ct.opened.Add(1)
		case http.StateClosed, http.StateHijacked:
			ct.closedCh <- struct{}{}
		}
	}
	return ct
}

// awaitClose waits for the server to see one connection close.
func (ct *connTracker) awaitClose(t *testing.T) {
	t.Helper()
	select {
	case <-ct.closedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("backend never saw its connection close")
	}
}

// newTrackedBackend is a started test server whose connections are
// counted.
func newTrackedBackend(t *testing.T, h http.HandlerFunc) (*httptest.Server, *connTracker) {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	ct := trackConns(srv)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, ct
}

func TestRouterRelaysEveryFraming(t *testing.T) {
	body := `{"expr":"aatb","selected":{"index":1},"pad":"` + strings.Repeat("y", 3000) + `"}`
	for _, c := range []struct {
		name   string
		write  func(w http.ResponseWriter)
		pooled int
	}{
		{"content-length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write([]byte(body))
		}, 1},
		{"chunked", func(w http.ResponseWriter) {
			w.Write([]byte(body[:100]))
			w.(http.Flusher).Flush()
			w.Write([]byte(body[100:]))
		}, 1},
		{"connection-close", func(w http.ResponseWriter) {
			w.Header().Set("Connection", "close")
			w.Write([]byte(body))
		}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := newTrackedBackend(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set(ConfidenceHeader, "0.75")
				c.write(w)
			})
			rt := testRouter(t, Config{Backends: []string{srv.URL}})
			for i := 0; i < 2; i++ {
				resp, got := postQuery(t, rt.Handler(), aatbQuery)
				if resp.StatusCode != http.StatusOK || string(got) != body {
					t.Fatalf("query %d: status %d, %d bytes relayed for %d", i, resp.StatusCode, len(got), len(body))
				}
				if h := resp.Header.Get(ConfidenceHeader); h != "0.75" {
					t.Fatalf("query %d: confidence header %q", i, h)
				}
				if n := idleConns(rt, srv.URL); n != c.pooled {
					t.Fatalf("query %d: %d idle connections, want %d", i, n, c.pooled)
				}
			}
		})
	}
}

func TestRouterCancelledAttemptClosesConnection(t *testing.T) {
	var calls atomic.Int64
	arrived := make(chan struct{}, 1)
	srv, ct := newTrackedBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			// The server notices a closed connection only once the body
			// is read.
			io.Copy(io.Discard, r.Body)
			arrived <- struct{}{}
			<-r.Context().Done()
			return
		}
		okRecord(w, r)
	})
	rt := testRouter(t, Config{Backends: []string{srv.URL}})
	if resp, _ := postQuery(t, rt.Handler(), aatbQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d", resp.StatusCode)
	}
	if n := idleConns(rt, srv.URL); n != 1 {
		t.Fatalf("%d idle connections after the warm-up", n)
	}
	// The client goes away while the pooled connection waits for its
	// answer: the connection must be closed, not pooled again.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived
		cancel()
	}()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(aatbQuery)).WithContext(ctx)
	rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
	ct.awaitClose(t)
	if n := idleConns(rt, srv.URL); n != 0 {
		t.Fatalf("%d idle connections after a cancelled attempt", n)
	}
}

func TestRouterHedgeLoserClosesConnection(t *testing.T) {
	slow, slowConns := newTrackedBackend(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	fast, _ := newTrackedBackend(t, okRecord)
	rt := testRouter(t, Config{Backends: []string{slow.URL, fast.URL}, HedgeAfter: time.Millisecond})
	res := rt.attemptHedged(context.Background(), rt.byURL[slow.URL], rt.byURL[fast.URL], "/api/v1/query", []byte(aatbQuery))
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("hedged attempt: status %d, %v", res.status, res.err)
	}
	if s := rt.Stats(); s.Hedged != 1 || s.HedgeWins != 1 {
		t.Fatalf("hedge counters %+v", s)
	}
	slowConns.awaitClose(t)
	if n := idleConns(rt, slow.URL); n != 0 {
		t.Fatalf("losing hedge pooled %d connections", n)
	}
	if n := idleConns(rt, fast.URL); n != 1 {
		t.Fatalf("winning hedge pooled %d connections, want 1", n)
	}
}

func TestRouterRetriesStalePooledConnection(t *testing.T) {
	srv, ct := newTrackedBackend(t, okRecord)
	rt := testRouter(t, Config{Backends: []string{srv.URL}})
	if resp, _ := postQuery(t, rt.Handler(), aatbQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d", resp.StatusCode)
	}
	// The backend drops the idle connection the router has pooled.
	srv.CloseClientConnections()
	ct.awaitClose(t)
	resp, body := postQuery(t, rt.Handler(), aatbQuery)
	if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte(DegradedNoBackend)) {
		t.Fatalf("query on a stale connection: status %d: %s", resp.StatusCode, body)
	}
	s := rt.Stats()
	if s.Retries != 0 || s.DegradedQueries != 0 || s.Backends[0].Failures != 0 {
		t.Fatalf("stale connection cost a ladder step: %+v", s)
	}
	if n := ct.opened.Load(); n != 2 {
		t.Fatalf("%d connections opened, want 2", n)
	}
}

func TestRouterCloseDropsIdleConnections(t *testing.T) {
	srv, ct := newTrackedBackend(t, okRecord)
	rt := testRouter(t, Config{Backends: []string{srv.URL}})
	if resp, _ := postQuery(t, rt.Handler(), aatbQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if n := idleConns(rt, srv.URL); n != 1 {
		t.Fatalf("%d idle connections before Close", n)
	}
	rt.Close()
	if n := idleConns(rt, srv.URL); n != 0 {
		t.Fatalf("%d idle connections after Close", n)
	}
	ct.awaitClose(t)
}

func TestRouterFailsOverCapAnswer(t *testing.T) {
	big := bytes.Repeat([]byte("z"), maxRelayBytes+1)
	for _, c := range []struct {
		name  string
		write func(w http.ResponseWriter)
	}{
		{"content-length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			w.Write(big)
		}},
		{"chunked", func(w http.ResponseWriter) { w.Write(big) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, ct := newTrackedBackend(t, func(w http.ResponseWriter, r *http.Request) { c.write(w) })
			rt := testRouter(t, Config{Backends: []string{srv.URL}})
			res := rt.byURL[srv.URL].conns.exchange(context.Background(), "/api/v1/query", []byte(aatbQuery))
			if !errors.Is(res.err, errBodyTooLarge) || !strings.Contains(res.err.Error(), strconv.Itoa(maxRelayBytes)) {
				t.Fatalf("over-cap answer: status %d, err %v", res.status, res.err)
			}
			ct.awaitClose(t)
			// Through the handler the over-cap answer is not authoritative:
			// the query falls to the local engine instead of relaying a
			// truncated 200.
			resp, body := postQuery(t, rt.Handler(), aatbQuery)
			var rec engine.Record
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &rec) != nil || rec.Degraded != DegradedNoBackend {
				t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
			}
			if s := rt.Stats(); s.Backends[0].Failures != 1 {
				t.Fatalf("backend failures %d, want 1", s.Backends[0].Failures)
			}
			if n := idleConns(rt, srv.URL); n != 0 {
				t.Fatalf("%d idle connections after over-cap answers", n)
			}
		})
	}
}

func TestRouterHedgesLowConfidenceAdaptive(t *testing.T) {
	const q = `{"expr":"aatb","instance":[80,514,768],"strategy":"adaptive"}`
	lowConf := func(header bool, delay time.Duration) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			if header {
				w.Header().Set(ConfidenceHeader, "0.2")
			}
			w.Write([]byte(`{"expr":"aatb","strategy":"adaptive","selected":{"index":1},"confidence":0.2}`))
		}
	}
	run := func(t *testing.T, h http.HandlerFunc, hedgeAfter time.Duration) *Router {
		a := newFakeBackend(t, h)
		b := newFakeBackend(t, h)
		rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}, HedgeAfter: hedgeAfter})
		for i := 0; i < 2; i++ {
			if resp, body := postQuery(t, rt.Handler(), q); resp.StatusCode != http.StatusOK {
				t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
			}
		}
		return rt
	}
	t.Run("header", func(t *testing.T) {
		// The first answer reports confidence 0.2; the second query for
		// the same shard key is hedged, and its owner's 20 ms answer is
		// slower than the 2 ms hedge delay.
		rt := run(t, lowConf(true, 20*time.Millisecond), 2*time.Millisecond)
		if s := rt.Stats(); s.LowConfidenceHedges != 1 || s.Hedged != 1 {
			t.Fatalf("low-confidence hedging %+v", s)
		}
	})
	t.Run("hedging off", func(t *testing.T) {
		rt := run(t, lowConf(true, 0), 0)
		if len(rt.conf) != 0 {
			t.Fatalf("confidence map %v with hedging off", rt.conf)
		}
	})
	t.Run("body only", func(t *testing.T) {
		rt := run(t, lowConf(false, 0), 2*time.Millisecond)
		if s := rt.Stats(); len(rt.conf) != 0 || s.LowConfidenceHedges != 0 || s.Hedged != 0 {
			t.Fatalf("body confidence was read: map %v, stats %+v", rt.conf, s)
		}
	})
}

func TestRouterRejectsNonHTTPBackend(t *testing.T) {
	for _, u := range []string{"https://127.0.0.1:8381", "127.0.0.1:8381", "unix:///tmp/lamb.sock"} {
		_, err := New(Config{Backends: []string{"http://127.0.0.1:8382", u}})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", u)) {
			t.Errorf("backend %s: err %v", u, err)
		}
	}
}
