package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lamb/internal/engine"
	"lamb/internal/faultinject"
	"lamb/internal/mat"
	"lamb/internal/outcomes"
	"lamb/internal/router"
)

// cmdServe runs the selection engine behind an HTTP JSON endpoint: the
// ROADMAP's serving path. Every response is produced by the same
// engine.Do pipeline the CLI uses, so `lamb select -json` and a curl
// against /api/v1/query emit identical records.
//
// The API is versioned: /api/v1/ is the documented, stable surface.
// Every endpoint also answers under the original /api/ prefix as a
// deprecated alias returning the identical body plus a "Deprecation"
// header and a "Link" header naming the successor path, so existing
// clients keep working while new ones pin the version.
//
// Endpoints (v1):
//
//	GET  /healthz              liveness + readiness: 200 when serving,
//	                           503 with a reason while a reload is
//	                           swapping stores or the in-flight limit is
//	                           saturated
//	GET  /api/v1/expressions   queryable expressions (name, arity, set
//	                           size)
//	GET  /api/v1/stats         per-layer cache counters, feedback/
//	                           adaptive/degradation counters, the
//	                           discriminant counters (anomalous_queries,
//	                           explore_queries), profile provenance, and
//	                           the server's own shed/panic/snapshot
//	                           counters
//	POST /api/v1/query         one engine.Query -> one selection record
//	                           with its ranking ([{alg, p_best, mean,
//	                           stderr}] fastest-first), confidence (the
//	                           top-2 win probability), and anomaly flag;
//	                           "timeout_ms" bounds the query. Stable
//	                           field names: "strategy" is what answered,
//	                           "requested_strategy"/"degraded" appear
//	                           when the degradation ladder was walked.
//	POST /api/v1/batch         {"queries": [...]} -> {"results": [...]};
//	                           "compute": true additionally executes each
//	                           query's selected algorithm — same-
//	                           algorithm queries of similar shape through
//	                           one fused batch plan — and attaches a
//	                           result block
//	POST /api/v1/feedback      one engine.Feedback measured outcome
//	GET  /api/v1/outcomes      schema-versioned snapshot of this
//	                           process's own (firsthand) outcome evidence
//	                           — the gossip export a router pulls
//	POST /api/v1/admin/reload  re-read the -profile store and atomically
//	                           swap it in (also triggered by SIGHUP)
//	POST /api/v1/admin/merge   install a peer's outcome snapshot as
//	                           evidence attributed to ?source=URL,
//	                           weights discounted by ?scale=F; idempotent
//
// With -profile FILE the persisted kernel-profile store is loaded at
// startup, so min-predicted and adaptive queries are answered without
// any serve-time measurement. With -outcomes FILE the feedback memory
// is restored at boot and snapshotted periodically and at shutdown, so
// accumulated learning survives restarts (at most one -snapshot-every
// interval of feedback is lost to a crash). With -explore-rate R the
// engine Thompson-samples roughly that fraction of adaptive answers
// from the posterior, so under-observed regions collect feedback on
// alternative algorithms.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	c := registerBackend(fs)
	c.registerReps(fs)
	addr := fs.String("addr", "127.0.0.1:8374", "listen address (use :0 for an ephemeral port)")
	bindEntries := fs.Int("bind-cache", engine.DefaultBindEntries, "binding-layer LRU entries")
	profilePath := fs.String("profile", "", "persisted kernel-profile store (enables min-predicted and adaptive; SIGHUP re-reads it)")
	outcomesPath := fs.String("outcomes", "", "outcome-store snapshot file: restored at boot, written periodically and at shutdown")
	snapshotEvery := fs.Duration("snapshot-every", 30*time.Second, "interval between outcome-store snapshots (with -outcomes)")
	halfLife := fs.Duration("half-life", time.Hour, "half-life of recorded outcome weights (0 disables decay)")
	deadline := fs.Duration("deadline", 0, "default per-request deadline (0 = none; requests may set timeout_ms)")
	maxInflight := fs.Int("max-inflight", defaultMaxInflight, "max concurrent query/batch requests before shedding with 503 (0 = unlimited)")
	exploreRate := fs.Float64("explore-rate", 0, "fraction of adaptive queries answered by Thompson-sampling exploration (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := c.engineWithProfiles(*bindEntries, *profilePath, *halfLife, *exploreRate)
	if err != nil {
		return err
	}
	if *profilePath != "" {
		fmt.Fprintf(os.Stderr, "lamb serve: loaded profile store %s\n", *profilePath)
	}
	s := newServer(eng, serveOptions{
		MaxInflight:  *maxInflight,
		Deadline:     *deadline,
		ProfilePath:  *profilePath,
		OutcomesPath: *outcomesPath,
		Backend:      eng.Timer().Exec.Name(),
	})
	if *outcomesPath != "" {
		if err := s.restoreOutcomes(); err != nil {
			return err
		}
	}

	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// Bounds the whole request read (headers + body), so a client
		// cannot pin a goroutine by trickling a body forever. Responses
		// are not bounded: a blas-backend oracle query legitimately
		// measures for a while.
		ReadTimeout: 30 * time.Second,
		IdleTimeout: 2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Signal handling is installed before the listen address is
	// announced: once a harness has seen the address, a SIGHUP must mean
	// "reload", never the default "terminate".
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigc)
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	// The actual address (not the flag) so a harness listening on :0 can
	// learn the port.
	fmt.Fprintf(os.Stderr, "lamb serve: listening on %s (backend %s)\n", ln.Addr(), c.backend)

	stopSnapshots := make(chan struct{})
	var snapshotsDone sync.WaitGroup
	if *outcomesPath != "" && *snapshotEvery > 0 {
		snapshotsDone.Add(1)
		go func() {
			defer snapshotsDone.Done()
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := s.snapshotOutcomes(); err != nil {
						fmt.Fprintf(os.Stderr, "lamb serve: outcome snapshot failed: %v\n", err)
					}
				case <-stopSnapshots:
					return
				}
			}
		}()
	}

	for {
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Hot reload: re-read the profile store and swap it in
				// while queries keep flowing.
				if gen, id, err := s.reloadProfiles(); err != nil {
					fmt.Fprintf(os.Stderr, "lamb serve: reload failed (still serving the previous store): %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "lamb serve: reloaded profile store %s (generation %d)\n", id, gen)
				}
				continue
			}
			fmt.Fprintln(os.Stderr, "lamb serve: shutting down")
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// Shutdown drains in-flight requests before returning, so the
			// final snapshot below sees every outcome that was accepted.
			shutdownErr := srv.Shutdown(shutdownCtx)
			close(stopSnapshots)
			snapshotsDone.Wait()
			if *outcomesPath != "" {
				if err := s.snapshotOutcomes(); err != nil {
					fmt.Fprintf(os.Stderr, "lamb serve: final outcome snapshot failed: %v\n", err)
					if shutdownErr == nil {
						shutdownErr = err
					}
				}
			}
			return shutdownErr
		}
	}
}

// defaultMaxInflight bounds concurrent query/batch requests: enough for
// real concurrency over the in-process engine, small enough that a
// traffic spike sheds with 503 instead of queueing into timeouts.
const defaultMaxInflight = 64

// maxBatchQueries caps one /api/batch request. A larger workload splits
// into multiple batches; an unbounded one would let a single request
// monopolise the engine and defeat the in-flight admission bound.
const maxBatchQueries = 1024

// serveOptions parameterise the HTTP layer (not the engine).
type serveOptions struct {
	// MaxInflight bounds concurrent query/batch requests (0 = unlimited).
	MaxInflight int
	// Deadline is the default per-request deadline; a request's
	// timeout_ms overrides it. Zero means none.
	Deadline time.Duration
	// ProfilePath is re-read by reloads; OutcomesPath is where snapshots
	// go. Backend names the executor for reload validation warnings.
	ProfilePath  string
	OutcomesPath string
	Backend      string
}

// server is the HTTP serving layer over one engine: admission control,
// deadlines, panic recovery, reload and snapshot plumbing, and its own
// operational counters.
type server struct {
	eng  *engine.Engine
	opts serveOptions
	// sem is the in-flight admission semaphore (nil when unlimited).
	sem chan struct{}
	// reloadMu serialises reloads; reloading gates readiness while a
	// swap is in progress.
	reloadMu  sync.Mutex
	reloading atomic.Bool
	// Operational counters, surfaced under "server" in /api/stats.
	shed       atomic.Uint64
	panics     atomic.Uint64
	snapWrites atomic.Uint64
	snapErrors atomic.Uint64
}

func newServer(eng *engine.Engine, opts serveOptions) *server {
	s := &server{eng: eng, opts: opts}
	if opts.MaxInflight > 0 {
		s.sem = make(chan struct{}, opts.MaxInflight)
	}
	return s
}

// serveMux builds the HTTP handler over an engine with default serving
// options. Split from cmdServe so tests drive it through httptest
// without binding a port.
func serveMux(eng *engine.Engine) http.Handler {
	return newServer(eng, serveOptions{MaxInflight: defaultMaxInflight}).handler()
}

// serverStats are the HTTP layer's own counters, reported alongside the
// engine's under "server" in /api/stats.
type serverStats struct {
	// Shed counts requests rejected with 503 by the in-flight limit;
	// Panics counts handler panics recovered into 500s.
	Shed   uint64 `json:"shed"`
	Panics uint64 `json:"panics"`
	// SnapshotWrites / SnapshotErrors count outcome-store snapshot
	// attempts (with -outcomes).
	SnapshotWrites uint64 `json:"snapshot_writes"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	MaxInflight    int    `json:"max_inflight"`
	Outcomes       string `json:"outcomes,omitempty"`
}

// serveStats is the /api/stats body: the engine's counters flattened at
// the top level (so jq paths like .queries keep working) plus the
// server block.
type serveStats struct {
	engine.Stats
	Server serverStats `json:"server"`
}

// queryRequest is the /api/query body: an engine.Query plus the
// optional per-request deadline.
type queryRequest struct {
	engine.Query
	// TimeoutMs bounds this query in milliseconds, overriding the
	// server's -deadline default. The query fails with 504 if it cannot
	// be answered in time (timed strategies degrade first; see engine).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// batchRequest is the /api/batch request body.
type batchRequest struct {
	Queries   []engine.Query `json:"queries"`
	TimeoutMs int            `json:"timeout_ms,omitempty"`
	// Compute additionally executes each query's selected algorithm on
	// deterministically filled inputs and attaches a result block per
	// item. Same-algorithm queries of similar shape are executed through
	// one fused batch plan (see engine.Request.Compute).
	Compute bool `json:"compute,omitempty"`
}

// batchResult summarises one computed result: its shape, whether it was
// produced through a fused batch plan, and a checksum (the sum of the
// result's elements) so a client can confirm determinism without
// shipping the whole matrix.
type batchResult struct {
	Rows     int     `json:"rows"`
	Cols     int     `json:"cols"`
	Fused    bool    `json:"fused"`
	Checksum float64 `json:"checksum"`
}

// batchItem is one /api/batch result: a record (plus, with "compute", a
// result block) or an error.
type batchItem struct {
	*engine.Record
	Result *batchResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// batchResponse is the /api/batch response body.
type batchResponse struct {
	Results []batchItem `json:"results"`
}

// handler assembles the route table behind the panic-recovery
// middleware: every endpoint under the versioned /api/v1/ prefix (the
// documented surface) and under the legacy /api/ prefix as a deprecated
// alias serving the identical body with deprecation headers.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	router.RegisterAPI(mux, "GET", "/expressions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.eng.ListExpressions())
	})
	router.RegisterAPI(mux, "GET", "/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, serveStats{
			Stats: s.eng.Stats(),
			Server: serverStats{
				Shed:           s.shed.Load(),
				Panics:         s.panics.Load(),
				SnapshotWrites: s.snapWrites.Load(),
				SnapshotErrors: s.snapErrors.Load(),
				MaxInflight:    s.opts.MaxInflight,
				Outcomes:       s.opts.OutcomesPath,
			},
		})
	})
	router.RegisterAPI(mux, "GET", "/outcomes", s.handleOutcomes)
	router.RegisterAPI(mux, "POST", "/query", s.handleQuery)
	router.RegisterAPI(mux, "POST", "/batch", s.handleBatch)
	router.RegisterAPI(mux, "POST", "/feedback", s.handleFeedback)
	router.RegisterAPI(mux, "POST", "/admin/reload", s.handleReload)
	router.RegisterAPI(mux, "POST", "/admin/merge", s.handleMerge)
	return s.recoverPanics(mux)
}

// recoverPanics turns a handler panic into a 500 and a counter instead
// of a dead process: one poisoned request must not take the server (and
// its unsnapshotted feedback) down with it.
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				fmt.Fprintf(os.Stderr, "lamb serve: panic in %s %s: %v\n", r.Method, r.URL.Path, v)
				// If the handler already wrote headers this is a no-op
				// on the status, but the connection still closes cleanly.
				writeError(w, http.StatusInternalServerError, errors.New("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleHealthz is the live-vs-ready probe: the process answering at
// all is liveness; readiness additionally requires no reload mid-swap
// and headroom under the in-flight limit, so a load balancer stops
// routing to a saturated or reloading instance before requests shed.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Ok     bool   `json:"ok"`
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	h := health{Ok: true, Ready: true}
	switch {
	case s.reloading.Load():
		h.Ready, h.Reason = false, "profile reload in progress"
	case s.sem != nil && len(s.sem) == cap(s.sem):
		h.Ready, h.Reason = false, "saturated: max in-flight requests reached"
	}
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// admit reserves an in-flight slot, shedding with 503 + Retry-After
// when the server is saturated: a bounded queue fails fast instead of
// stacking requests into timeout.
func (s *server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("server saturated: try again"))
		return nil, false
	}
}

// requestCtx derives the query context: the request's own context
// (cancelled when the client disconnects) bounded by timeout_ms or the
// server default.
func (s *server) requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.opts.Deadline
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return r.Context(), func() {}
}

// writeEngineError maps an engine error to its status: deadline and
// cancellation are 504 (the request ran out of time, not a bad
// request), everything else is the caller's 400.
func writeEngineError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeError(w, http.StatusGatewayTimeout, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	var q queryRequest
	if !decodeRequest(w, r, buf, &q, parseQueryRequest) {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, q.TimeoutMs)
	defer cancel()
	// Chaos hook: the suite arms "serve.query" to panic or fail inside
	// the handler, behind the recovery middleware.
	if err := faultinject.FireCtx(ctx, "serve.query"); err != nil {
		writeEngineError(w, err)
		return
	}
	res := s.eng.Do(ctx, engine.Request{Queries: []engine.Query{q.Query}})
	if res[0].Err != nil {
		writeEngineError(w, res[0].Err)
		return
	}
	rec := res[0].Record
	router.SetConfidence(w, rec.Confidence)
	writeAppended(w, buf, rec, func(b []byte) ([]byte, bool) { return engine.AppendRecord(b, rec) })
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	var req batchRequest
	if !decodeRequest(w, r, buf, &req, parseBatchRequest) {
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the %d-query limit; split it", len(req.Queries), maxBatchQueries))
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	results := s.eng.Do(ctx, engine.Request{Queries: req.Queries, Compute: req.Compute})
	resp := batchResponse{Results: make([]batchItem, len(results))}
	for i, res := range results {
		switch {
		case res.Err != nil && req.Compute:
			resp.Results[i] = batchItem{Record: res.Record, Error: res.Err.Error()}
		case res.Err != nil:
			resp.Results[i] = batchItem{Error: res.Err.Error()}
		case req.Compute:
			resp.Results[i] = batchItem{Record: res.Record, Result: &batchResult{
				Rows:     res.Output.Rows,
				Cols:     res.Output.Cols,
				Fused:    res.Fused,
				Checksum: denseChecksum(res.Output),
			}}
		default:
			resp.Results[i] = batchItem{Record: res.Record}
		}
	}
	writeAppended(w, buf, &resp, func(b []byte) ([]byte, bool) { return appendBatchResponse(b, &resp) })
}

// denseChecksum sums a matrix's elements (stride-aware).
func denseChecksum(d *mat.Dense) float64 {
	var sum float64
	for c := 0; c < d.Cols; c++ {
		col := d.Data[c*d.Stride : c*d.Stride+d.Rows]
		for _, v := range col {
			sum += v
		}
	}
	return sum
}

func (s *server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	var fb engine.Feedback
	if !decodeRequest(w, r, buf, &fb, nil) {
		return
	}
	if err := s.eng.Feedback(fb); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleOutcomes exports this process's firsthand feedback as a
// schema-versioned outcome snapshot — the gossip feed a router (or an
// operator's curl) pulls to spread one shard's learning fleet-wide.
// Only local evidence is exported: merged peer evidence stays out of
// the feed so gossip cannot echo it around the fleet.
func (s *server) handleOutcomes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.SnapshotLocalOutcomes())
}

// handleMerge installs a peer's outcome snapshot as evidence attributed
// to ?source=URL, optionally discounted by ?scale=F in (0,1]. The merge
// is idempotent — re-POSTing a snapshot is a no-op, a newer one from
// the same source supersedes the old — so retries and overlapping
// gossip rounds are safe.
func (s *server) handleMerge(w http.ResponseWriter, r *http.Request) {
	source := r.URL.Query().Get("source")
	if source == "" {
		writeError(w, http.StatusBadRequest, errors.New("merge requires ?source=<peer identity>"))
		return
	}
	scale := 1.0
	if raw := r.URL.Query().Get("scale"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || !(v > 0 && v <= 1) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("scale %q must be a number in (0, 1]", raw))
			return
		}
		scale = v
	}
	snap, err := outcomes.DecodeSnapshot(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad snapshot: %w", err))
		return
	}
	// Chaos hook: the suite arms "serve.merge" to fail the install and
	// assert gossip errors stay contained.
	if err := faultinject.Fire("serve.merge"); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	merged, skipped := s.eng.MergeOutcomes(source, snap, scale)
	writeJSON(w, http.StatusOK, map[string]int{"merged": merged, "skipped": skipped})
}

// handleReload re-reads the -profile store and swaps it in atomically;
// in-flight queries finish on the store they started with. Errors leave
// the previous store serving.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	gen, id, err := s.reloadProfiles()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "profile": id, "generation": gen})
}

// reloadProfiles is the shared SIGHUP / admin-endpoint implementation:
// load and validate the store from disk first, then swap — a corrupt
// file on disk must never displace the store that is serving.
func (s *server) reloadProfiles() (gen uint64, id string, err error) {
	if s.opts.ProfilePath == "" {
		return 0, "", errors.New("no profile store to reload: serve was started without -profile")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.reloading.Store(true)
	defer s.reloading.Store(false)
	// Chaos hook: the suite arms "serve.reload" to inject latency into
	// the swap window and race it against traffic.
	if err := faultinject.Fire("serve.reload"); err != nil {
		return 0, "", err
	}
	set, meta, err := loadProfileStore(s.opts.ProfilePath, s.opts.Backend)
	if err != nil {
		return 0, "", err
	}
	return s.eng.ReloadProfiles(set, meta), meta.ID(), nil
}

// restoreOutcomes loads the -outcomes snapshot at boot. A missing file
// is a fresh start; a corrupt file is a hard error — silently serving
// without the memory the operator asked for would defeat -outcomes.
func (s *server) restoreOutcomes() error {
	snap, err := outcomes.ReadFile(s.opts.OutcomesPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "lamb serve: no outcome snapshot at %s yet, starting fresh\n", s.opts.OutcomesPath)
			return nil
		}
		return fmt.Errorf("restoring outcomes: %w", err)
	}
	restored, skipped := s.eng.RestoreOutcomes(snap)
	fmt.Fprintf(os.Stderr, "lamb serve: restored %d outcomes from %s (skipped %d)\n",
		restored, s.opts.OutcomesPath, skipped)
	return nil
}

// snapshotOutcomes writes the outcome store to -outcomes atomically.
func (s *server) snapshotOutcomes() error {
	err := s.eng.SnapshotOutcomes().WriteFile(s.opts.OutcomesPath)
	if err != nil {
		s.snapErrors.Add(1)
		return err
	}
	s.snapWrites.Add(1)
	return nil
}

// maxBodyBytes caps request bodies: queries are a few hundred bytes,
// batches a few thousand per entry — 4 MiB is orders of magnitude of
// headroom while keeping a hostile body from buffering unbounded.
const maxBodyBytes = 4 << 20

// encodeLog rate-limits response-encoding failure logs: encoding
// typically fails because the client went away mid-write, and a
// disconnect storm must not turn into a log storm.
var encodeLog struct {
	mu      sync.Mutex
	last    time.Time
	dropped uint64
}

func logEncodeError(err error) {
	encodeLog.mu.Lock()
	defer encodeLog.mu.Unlock()
	now := time.Now()
	if now.Sub(encodeLog.last) < time.Second {
		encodeLog.dropped++
		return
	}
	suffix := ""
	if encodeLog.dropped > 0 {
		suffix = fmt.Sprintf(" (%d similar errors suppressed)", encodeLog.dropped)
		encodeLog.dropped = 0
	}
	encodeLog.last = now
	fmt.Fprintf(os.Stderr, "lamb serve: response encoding failed: %v%s\n", err, suffix)
}

// writeJSON replies with a JSON body and status. Bodies are compact —
// records on the hot query/batch path do not pay for indentation —
// and encoding failures (usually a disconnected client) are logged
// rate-limited, never silently swallowed.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logEncodeError(err)
	}
}

// writeError replies with {"error": ...}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
