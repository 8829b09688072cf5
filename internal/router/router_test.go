package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lamb/internal/engine"
)

// shardKey is the router's shard key as it was written before
// shardHash: the case-folded expression plus "|" and each dimension's
// ⌊log2 max(d,1)⌋. It is kept as the oracle that pins every query to
// the shard it has always had.
func shardKey(expr string, inst []int) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(expr))
	for _, d := range inst {
		b.WriteByte('|')
		if d < 1 {
			d = 1
		}
		b.WriteString(strconv.Itoa(bits.Len(uint(d)) - 1))
	}
	return b.String()
}

// fnvHash64 is hash64 as it was written over hash/fnv's FNV-1a, the
// oracle for the inlined FNV-1a: vnode positions and shard positions
// must keep their bits.
func fnvHash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func TestRingCandidatesDistinctAndStable(t *testing.T) {
	backends := []string{"http://a", "http://b", "http://c"}
	r := newRing(backends)
	key := shardHash("AATB", []int{80, 514, 768})
	cands := r.candidates(key)
	if len(cands) != 3 {
		t.Fatalf("candidates %v", cands)
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate in %v", cands)
		}
		seen[c] = true
	}
	// Deterministic: the same key always walks the same order.
	for i := 0; i < 5; i++ {
		again := r.candidates(key)
		for j := range cands {
			if again[j] != cands[j] {
				t.Fatalf("unstable order %v vs %v", again, cands)
			}
		}
	}
	// Load spreads: across many shard keys every backend owns something.
	owners := map[string]int{}
	for d := 1; d < 4096; d *= 2 {
		for _, e := range []string{"aatb", "abc", "gemm-chain"} {
			owners[r.candidates(shardHash(e, []int{d, d * 2, d * 4}))[0]]++
		}
	}
	for _, b := range backends {
		if owners[b] == 0 {
			t.Fatalf("backend %s owns no shards: %v", b, owners)
		}
	}
}

func TestShardKeyOctaves(t *testing.T) {
	// Shapes within the same octave share a shard; doubling a
	// dimension moves it.
	if shardHash("AATB", []int{100, 300, 700}) != shardHash("aatb", []int{120, 260, 650}) {
		t.Fatal("same-octave instances got different shard hashes")
	}
	if shardHash("aatb", []int{100, 300, 700}) == shardHash("aatb", []int{100, 300, 1400}) {
		t.Fatal("doubled dimension kept the same shard hash")
	}
}

// TestShardHashMatchesShardKey pins placement: over fixed-seed random
// queries — mixed-case and non-ASCII names, dimensions at and below
// zero, huge dimensions, and instances long enough to outgrow the stack
// buffer — the shard hash is the hash/fnv-based hash of the old shard
// key's bytes, so every query lands where it always has. The ring's
// vnode labels hash to the same bits too.
func TestShardHashMatchesShardKey(t *testing.T) {
	names := []string{"aatb", "AATB", "AaTb", "chain", "Chain-ABCD", "gls", "", "ÄaTB", "ſtrange", "lstsq\xff", strings.Repeat("LongName", 20)}
	dims := []int{math.MinInt, -5, -1, 0, 1, 2, 3, 7, 8, 511, 512, 1 << 40, math.MaxInt}
	rng := rand.New(rand.NewSource(0x5a4d))
	for range 5000 {
		name := names[rng.Intn(len(names))]
		inst := make([]int, rng.Intn(40))
		for i := range inst {
			if rng.Intn(2) == 0 {
				inst[i] = dims[rng.Intn(len(dims))]
			} else {
				inst[i] = rng.Intn(1<<16) - 16
			}
		}
		if got, want := shardHash(name, inst), fnvHash64(shardKey(name, inst)); got != want {
			t.Fatalf("shardHash(%q, %v) = %#x, want the hash of %q, %#x", name, inst, got, shardKey(name, inst), want)
		}
	}
	for v := range 256 {
		label := "http://127.0.0.1:8381#" + strconv.Itoa(v)
		if got, want := hash64([]byte(label)), fnvHash64(label); got != want {
			t.Fatalf("hash64(%q) = %#x, want %#x", label, got, want)
		}
	}
}

// TestShardHashZeroAllocs checks that placing a query of a lowercase
// name, as clients send them, and an instance within ir.Key's inline
// array allocates nothing.
func TestShardHashZeroAllocs(t *testing.T) {
	inst := []int{80, 514, 768, 1 << 20, 3, 9, 27, 81, 243, 729}
	var h uint64
	if n := testing.AllocsPerRun(100, func() { h = shardHash("chain", inst) }); n != 0 {
		t.Errorf("shardHash allocates %v times", n)
	}
	_ = h
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(4, 2, 0.5, time.Second)
	b.now = func() time.Time { return now }

	if !b.allow() {
		t.Fatal("new breaker not closed")
	}
	// One failure among successes stays closed (rate below trip).
	b.success()
	b.success()
	b.failure()
	b.success()
	if st, _ := b.snapshot(); st != "closed" {
		t.Fatalf("state %s after 1/4 failures", st)
	}
	// Consecutive failures push the windowed rate to 3/4 >= 0.5: open.
	b.failure()
	b.failure()
	if st, opens := b.snapshot(); st != "open" || opens != 1 {
		t.Fatalf("state %s opens %d", st, opens)
	}
	if b.allow() {
		t.Fatal("open breaker allowed a forward")
	}
	// After openFor, one half-open trial; its failure re-opens.
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("half-open trial refused")
	}
	b.failure()
	if st, opens := b.snapshot(); st != "open" || opens != 2 {
		t.Fatalf("after failed trial: %s opens %d", st, opens)
	}
	// Next trial succeeds: closed, window reset.
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("second trial refused")
	}
	b.success()
	if st, _ := b.snapshot(); st != "closed" {
		t.Fatalf("after passed trial: %s", st)
	}
	// Probe authority: forceOpen trips immediately, probeRecovered
	// closes immediately.
	b.forceOpen()
	if st, _ := b.snapshot(); st != "open" {
		t.Fatal("forceOpen did not open")
	}
	b.probeRecovered()
	if st, _ := b.snapshot(); st != "closed" {
		t.Fatal("probeRecovered did not close")
	}
}

// fakeBackend is a minimal serve stand-in whose behaviour each test
// scripts.
type fakeBackend struct {
	srv     *httptest.Server
	healthy atomic.Bool
	queries atomic.Uint64
	handler atomic.Value // func(w, r) for /api/*
}

func newFakeBackend(t *testing.T, handle func(w http.ResponseWriter, r *http.Request)) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	f.healthy.Store(true)
	f.handler.Store(handle)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if !f.healthy.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"ok":true}`))
			return
		}
		f.queries.Add(1)
		f.handler.Load().(func(http.ResponseWriter, *http.Request))(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func okRecord(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte(`{"expr":"AATB","strategy":"min-flops","selected":{"index":1}}`))
}

func testRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Local == nil {
		cfg.Local = engine.New(engine.Config{})
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postQuery(t *testing.T, h http.Handler, body string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/query", bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	resp := w.Result()
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

const aatbQuery = `{"expr":"aatb","instance":[80,514,768],"strategy":"min-flops"}`

func TestRouterRetriesOnFailingBackend(t *testing.T) {
	bad := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	good := newFakeBackend(t, okRecord)
	rt := testRouter(t, Config{
		Backends:    []string{bad.srv.URL, good.srv.URL},
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	h := rt.Handler()
	// Whichever backend owns the shard, every query must come back 200:
	// either served by the owner or retried onto the survivor.
	for i := 0; i < 4; i++ {
		resp, body := postQuery(t, h, aatbQuery)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	if good.queries.Load() == 0 {
		t.Fatal("healthy backend never reached")
	}
	s := rt.Stats()
	if s.Forwards != 4 {
		t.Fatalf("forwards %d", s.Forwards)
	}
	if bad.queries.Load() > 0 && s.Retries == 0 {
		t.Fatalf("failing owner hit but no retries counted: %+v", s)
	}
}

func TestRouterBreakerOpensUnderFailureRate(t *testing.T) {
	bad := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	good := newFakeBackend(t, okRecord)
	rt := testRouter(t, Config{
		Backends:    []string{bad.srv.URL, good.srv.URL},
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	// Once open, the failing backend's breaker stays open for the rest
	// of the test.
	br := rt.byURL[bad.srv.URL].br
	br.mu.Lock()
	br.openFor = time.Hour
	br.mu.Unlock()
	h := rt.Handler()
	// Spread queries over many shard keys so the failing backend owns
	// some of them; every hit records a breaker failure. Ring positions
	// depend on the backends' (random) ports, so two octave axes give
	// 44 keys — enough that the failing backend owning none is
	// effectively impossible.
	spray := func() {
		for d := 16; d <= 1<<14; d *= 2 {
			for e := 16; e <= 1<<10; e *= 4 {
				q := fmt.Sprintf(`{"expr":"aatb","instance":[%d,%d,%d]}`, d, e+1, d+2)
				if resp, body := postQuery(t, h, q); resp.StatusCode != http.StatusOK {
					t.Fatalf("query d=%d e=%d status %d: %s", d, e, resp.StatusCode, body)
				}
			}
		}
	}
	// One spray is not enough on a fast machine: after the failing
	// backend's first failure it sits in retry backoff (BackoffMax 2ms)
	// and the remaining spray requests skip it without recording breaker
	// samples. Spray until the breaker opens, sleeping past the backoff
	// between rounds so each round lands fresh failures.
	badOf := func() BackendStats {
		for _, b := range rt.Stats().Backends {
			if b.URL == bad.srv.URL {
				return b
			}
		}
		t.Fatalf("failing backend missing from stats")
		return BackendStats{}
	}
	deadline := time.Now().Add(10 * time.Second)
	spray()
	for badOf().Breaker != "open" && time.Now().Before(deadline) {
		time.Sleep(3 * time.Millisecond)
		spray()
	}
	if badStats := badOf(); badStats.Breaker != "open" {
		t.Fatalf("failing backend's breaker %q after %d failures", badStats.Breaker, badStats.Failures)
	}
	// With the breaker open the failing backend stops seeing traffic.
	before := bad.queries.Load()
	spray()
	if bad.queries.Load() != before {
		t.Fatal("open breaker did not fail fast")
	}
}

func TestRouterDegradesToLocalWhenAllDown(t *testing.T) {
	const q = `{"expr":"aatb","instance":[80,514,768],"strategy":"adaptive"}`
	records := map[string][]byte{}
	for _, c := range []struct {
		name, path, body string
		record           func(t *testing.T, body []byte) []byte
	}{
		{"query", "/api/v1/query", q, func(t *testing.T, body []byte) []byte { return body }},
		{"batch", "/api/v1/batch", `{"queries":[` + q + `]}`, func(t *testing.T, body []byte) []byte {
			var out struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != 1 {
				t.Fatalf("batch body %s: %v", body, err)
			}
			return out.Results[0]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := testRouter(t, Config{
				// Nothing listens here: connection refused, instantly.
				Backends:    []string{"http://127.0.0.1:9", "http://127.0.0.1:10"},
				BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
			})
			req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader([]byte(c.body)))
			w := httptest.NewRecorder()
			rt.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			raw := c.record(t, w.Body.Bytes())
			var rec engine.Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Degraded != DegradedNoBackend || rec.Requested != "adaptive" || rec.Strategy != "min-flops" {
				t.Fatalf("degraded record %+v", rec)
			}
			if rec.Selected.Index == 0 {
				t.Fatalf("no selection in degraded record %+v", rec)
			}
			if s := rt.Stats(); s.DegradedQueries != 1 {
				t.Fatalf("degraded counter %+v", s)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, raw); err != nil {
				t.Fatal(err)
			}
			records[c.name] = compact.Bytes()
		})
	}
	if a, b := records["query"], records["batch"]; !bytes.Equal(a, b) {
		t.Fatalf("query and batch fallbacks differ:\n%s\n%s", a, b)
	}
}

func TestRouterProbeDrivenUpDownRecovery(t *testing.T) {
	f := newFakeBackend(t, okRecord)
	rt := testRouter(t, Config{Backends: []string{f.srv.URL}, DownAfter: 2})
	find := func() BackendStats { return rt.Stats().Backends[0] }

	rt.probeAll()
	if b := find(); !b.Up || b.Breaker != "closed" {
		t.Fatalf("healthy probe: %+v", b)
	}
	f.healthy.Store(false)
	rt.probeAll()
	if b := find(); !b.Up {
		t.Fatalf("one failed probe already marked down: %+v", b)
	}
	rt.probeAll()
	if b := find(); b.Up || b.Breaker != "open" {
		t.Fatalf("after DownAfter failures: %+v", b)
	}
	// Requests now skip it entirely; with no local engine configured the
	// router sheds instead.
	resp, _ := postQuery(t, rt.Handler(), aatbQuery)
	if resp.StatusCode != http.StatusOK { // local fallback engine
		t.Fatalf("status %d", resp.StatusCode)
	}
	if f.queries.Load() != 0 {
		t.Fatal("down backend still received traffic")
	}
	// Recovery: one good probe flips it up and closes the breaker.
	f.healthy.Store(true)
	rt.probeAll()
	if b := find(); !b.Up || b.Breaker != "closed" {
		t.Fatalf("after recovery probe: %+v", b)
	}
	if resp, _ := postQuery(t, rt.Handler(), aatbQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d", resp.StatusCode)
	}
	if f.queries.Load() == 0 {
		t.Fatal("recovered backend got no traffic")
	}
}

func TestRouterHedgesSlowTimedQueries(t *testing.T) {
	release := make(chan struct{})
	slow := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		<-release
		okRecord(w, r)
	})
	fast := newFakeBackend(t, okRecord)
	defer close(release)
	rt := testRouter(t, Config{
		Backends:   []string{slow.srv.URL, fast.srv.URL},
		HedgeAfter: 5 * time.Millisecond,
	})
	h := rt.Handler()
	// Hit shard keys until the slow backend owns one; oracle queries
	// there must be answered by the hedge within the test deadline.
	for d := 64; d < 4096; d *= 2 {
		q := fmt.Sprintf(`{"expr":"aatb","instance":[%d,%d,%d],"strategy":"oracle"}`, d, d+1, d+2)
		resp, body := postQuery(t, h, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	s := rt.Stats()
	if slow.queries.Load() == 0 {
		t.Skip("ring never picked the slow backend as owner for these keys")
	}
	if s.Hedged == 0 || s.HedgeWins == 0 {
		t.Fatalf("hedge counters %+v", s)
	}
}

func TestRouterBatchSplitsAndReassembles(t *testing.T) {
	echo := func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Queries []struct {
				Instance []int `json:"instance"`
			} `json:"queries"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		w.Write([]byte(batchEcho(len(req.Queries))))
	}
	a := newFakeBackend(t, echo)
	b := newFakeBackend(t, echo)
	rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	// Two octave axes give 44 shard keys, so both backends own some of
	// the batch for any ring layout the random ports produce.
	var queries []string
	for d := 16; d <= 1<<14; d *= 2 {
		for e := 16; e <= 1<<10; e *= 4 {
			queries = append(queries, fmt.Sprintf(`{"expr":"aatb","instance":[%d,%d,%d]}`, d, e, d))
		}
	}
	body := `{"queries":[` + join(queries) + `]}`
	req := httptest.NewRequest(http.MethodPost, "/api/batch", bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(resp.Results), len(queries))
	}
	for i, r := range resp.Results {
		if len(r) == 0 || bytes.Contains(r, []byte("error")) {
			t.Fatalf("result %d: %s", i, r)
		}
	}
	if a.queries.Load() == 0 || b.queries.Load() == 0 {
		t.Fatalf("batch not split: a=%d b=%d", a.queries.Load(), b.queries.Load())
	}
}

func batchEcho(n int) string {
	items := make([]string, n)
	for i := range items {
		items[i] = `{"expr":"AATB","selected":{"index":1}}`
	}
	return `{"results":[` + join(items) + `]}`
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

func TestRouterGossipMergeRound(t *testing.T) {
	snapshot := `{"schema_version":1,"created_unix":1,"profile":"p","records":[]}`
	type mergeCall struct{ source, scale string }
	newGossipBackend := func() (*fakeBackend, *[]mergeCall) {
		calls := &[]mergeCall{}
		var f *fakeBackend
		f = newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodGet && r.URL.Path == "/api/v1/outcomes":
				w.Write([]byte(snapshot))
			case r.Method == http.MethodPost && r.URL.Path == "/api/v1/admin/merge":
				*calls = append(*calls, mergeCall{r.URL.Query().Get("source"), r.URL.Query().Get("scale")})
				w.Write([]byte(`{"merged":3,"skipped":0}`))
			default:
				w.WriteHeader(http.StatusNotFound)
			}
		})
		return f, calls
	}
	a, aCalls := newGossipBackend()
	b, bCalls := newGossipBackend()
	rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	rt.MergeRound(context.Background())
	if len(*aCalls) != 1 || len(*bCalls) != 1 {
		t.Fatalf("merge calls a=%v b=%v", *aCalls, *bCalls)
	}
	if (*bCalls)[0].source != a.srv.URL || (*bCalls)[0].scale != "0.5" {
		t.Fatalf("b's merge call %+v", (*bCalls)[0])
	}
	s := rt.Stats()
	if s.MergeRounds != 1 || s.MergedOutcomes != 6 || s.MergeErrors != 0 {
		t.Fatalf("gossip counters %+v", s)
	}
	// A down backend drops out of the round entirely.
	b.healthy.Store(false)
	rt.probeAll()
	rt.probeAll()
	rt.MergeRound(context.Background())
	if len(*aCalls) != 1 || len(*bCalls) != 1 {
		t.Fatalf("gossip round included a down backend: a=%v b=%v", *aCalls, *bCalls)
	}
}

func TestRouterHealthzReflectsFleet(t *testing.T) {
	rt := testRouter(t, Config{Backends: []string{"http://127.0.0.1:9"}})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	// Local fallback keeps the router ready even with the fleet dark.
	if w.Code != http.StatusOK {
		t.Fatalf("healthz with local fallback: %d", w.Code)
	}
	noLocal, err := New(Config{Backends: []string{"http://127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	defer noLocal.Close()
	noLocal.backends[0].up.Store(false)
	w = httptest.NewRecorder()
	noLocal.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with nothing to serve from: %d", w.Code)
	}
}
