package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"lamb/internal/cjson"
	"lamb/internal/engine"
	"lamb/internal/expr"
)

// The router's HTTP surface mirrors the serve API — a client pointed at
// a router instead of a single backend sees the same endpoints and the
// same record schema — with the router's own /healthz and /api/stats.
// Like the serve layer, the documented surface is /api/v1/ and the
// legacy /api/ paths remain as deprecated aliases.

// Handler assembles the route table.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	RegisterAPI(mux, "GET", "/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.Stats())
	})
	RegisterAPI(mux, "GET", "/expressions", rt.handleExpressions)
	RegisterAPI(mux, "POST", "/query", rt.handleQuery)
	RegisterAPI(mux, "POST", "/batch", rt.handleBatch)
	RegisterAPI(mux, "POST", "/feedback", rt.handleFeedback)
	return mux
}

// RegisterAPI registers h for method at the versioned /api/v1 path and
// at the legacy /api path as a deprecated alias: the same body, plus
// RFC 8594-style headers steering clients to the versioned successor.
// Both the serve API and the router's mirror of it register through
// here.
func RegisterAPI(mux *http.ServeMux, method, path string, h http.HandlerFunc) {
	mux.HandleFunc(method+" /api/v1"+path, h)
	mux.HandleFunc(method+" /api"+path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", `</api/v1`+path+`>; rel="successor-version"`)
		h(w, r)
	})
}

// handleHealthz: the router is live while it answers at all, and ready
// while it can produce selection records — at least one backend up, or
// the local fallback engine armed.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, b := range rt.backends {
		if b.up.Load() {
			up++
		}
	}
	ready := up > 0 || rt.cfg.Local != nil
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ok": true, "ready": ready, "backends": len(rt.backends), "up": up,
	})
}

// queryBody is the lenient decode of a query request: just enough to
// compute the shard hash and the deadline. The original bytes are
// relayed verbatim, so fields the router doesn't know still reach the
// backend (which enforces its own strict schema).
type queryBody struct {
	Expr      string `json:"expr"`
	Instance  []int  `json:"instance"`
	Strategy  string `json:"strategy"`
	TimeoutMs int    `json:"timeout_ms"`
}

// queryBodyKeys are queryBody's tags.
var queryBodyKeys = []string{"expr", "instance", "strategy", "timeout_ms"}

// decodeQueryBody decodes data into q as json.Unmarshal does: in one
// pass when data is in the canonical form (unknown keys are skipped with
// their values, as Unmarshal skips them), by json.Unmarshal when it is
// not (case-folded or repeated keys, null, escapes, anything invalid),
// so the value and the error do not depend on the path.
func decodeQueryBody(data []byte, q *queryBody) error {
	if parseQueryBody(data, q) {
		return nil
	}
	return json.Unmarshal(data, q)
}

// parseQueryBody decodes a canonical body into q and reports whether
// data was one; q is written only then.
func parseQueryBody(data []byte, q *queryBody) bool {
	p := cjson.NewReader(data)
	var v queryBody
	ok := p.LenientObject(queryBodyKeys, func(key string) bool {
		var ok bool
		var b []byte
		switch key {
		case "expr":
			b, ok = p.Str()
			v.Expr = string(b)
		case "instance":
			var buf [16]int
			var dims []int
			dims, ok = p.Ints(buf[:0])
			v.Instance = slices.Clone(dims)
		case "strategy":
			b, ok = p.Str()
			v.Strategy = string(b)
		case "timeout_ms":
			v.TimeoutMs, ok = p.Int()
		}
		return ok
	})
	if !ok || !p.End() {
		return false
	}
	*q = v
	return true
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, q, ok := rt.readQuery(w, r)
	if !ok {
		return
	}
	ctx, cancel := requestCtx(r, q.TimeoutMs)
	defer cancel()
	key := shardHash(q.Expr, q.Instance)
	cands := rt.ring.candidates(key)
	// Hedging is reserved for queries where tail latency is worth
	// doubled backend work: timed strategies (an oracle query's latency
	// is backend-side measurement, the work a straggler stretches into
	// the tail) and adaptive queries in regions the engine itself
	// reported low confidence for — an uncertain answer arriving late is
	// the worst of both.
	hedge := q.Strategy == "oracle"
	if !hedge && q.Strategy == "adaptive" && rt.cfg.HedgeAfter > 0 && rt.lowConfidence(key) {
		hedge = true
		rt.lowConfHedges.Add(1)
	}
	res := rt.forward(ctx, cands, "/api/v1/query", body, hedge)
	if res.err == nil {
		// The record and its confidence header are relayed untouched.
		// With hedging on, the router also remembers the confidence to
		// steer future hedging.
		if rt.cfg.HedgeAfter > 0 {
			rt.observeConfidence(key, res)
		}
		relay(w, res)
		return
	}
	rt.localQuery(w, ctx, q)
}

// localAnswer is the bottom of the ladder: no backend answered, so the
// local profile-less engine selects by min-flops — the paper's
// always-available discriminant — and the record says so. Without a
// local engine the error is errNoBackend.
func (rt *Router) localAnswer(ctx context.Context, q queryBody) (*engine.Record, error) {
	if rt.cfg.Local == nil {
		return nil, errNoBackend
	}
	res := rt.cfg.Local.Do(ctx, engine.Request{Queries: []engine.Query{
		{Expr: q.Expr, Instance: expr.Instance(q.Instance), Strategy: "min-flops"},
	}})
	if res[0].Err != nil {
		return nil, res[0].Err
	}
	// Stamp a copy: the engine may share the record with concurrent
	// identical queries.
	rec := *res[0].Record
	if q.Strategy != "" && q.Strategy != "min-flops" {
		rec.Requested = q.Strategy
	}
	rec.Degraded = DegradedNoBackend
	rt.degraded.Add(1)
	return &rec, nil
}

// localQuery answers a single query from the local engine.
func (rt *Router) localQuery(w http.ResponseWriter, ctx context.Context, q queryBody) {
	rec, err := rt.localAnswer(ctx, q)
	switch {
	case errors.Is(err, errNoBackend):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		SetConfidence(w, rec.Confidence)
		writeJSON(w, http.StatusOK, rec)
	}
}

// localBatchItem answers one batch entry from the local engine,
// returning the serve-schema item JSON.
func (rt *Router) localBatchItem(ctx context.Context, raw json.RawMessage) json.RawMessage {
	var q queryBody
	if err := decodeQueryBody(raw, &q); err != nil {
		return errorItem(err)
	}
	rec, err := rt.localAnswer(ctx, q)
	if err != nil {
		return errorItem(err)
	}
	out, err := json.Marshal(rec)
	if err != nil {
		return errorItem(err)
	}
	return out
}

func errorItem(err error) json.RawMessage {
	out, _ := json.Marshal(map[string]string{"error": err.Error()})
	return out
}

// maxRouteBatch mirrors the serve layer's batch cap.
const maxRouteBatch = 1024

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Queries   []json.RawMessage `json:"queries"`
		TimeoutMs int               `json:"timeout_ms"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Queries) > maxRouteBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the %d-query limit; split it", len(req.Queries), maxRouteBatch))
		return
	}
	ctx, cancel := requestCtx(r, req.TimeoutMs)
	defer cancel()

	// Split the batch by shard owner — each sub-batch rides the owning
	// backend's fused execution path — then reassemble in order.
	type group struct {
		cands   []string
		indices []int
		raws    []json.RawMessage
	}
	groups := make(map[string]*group)
	var localIdx []int
	results := make([]json.RawMessage, len(req.Queries))
	for i, raw := range req.Queries {
		var q queryBody
		if err := decodeQueryBody(raw, &q); err != nil {
			results[i] = errorItem(err)
			continue
		}
		cands := rt.ring.candidates(shardHash(q.Expr, q.Instance))
		owner := ""
		for _, c := range cands {
			if b := rt.byURL[c]; b.up.Load() {
				owner = c
				break
			}
		}
		if owner == "" {
			localIdx = append(localIdx, i)
			continue
		}
		g := groups[owner]
		if g == nil {
			g = &group{cands: cands}
			groups[owner] = g
		}
		g.indices = append(g.indices, i)
		g.raws = append(g.raws, raw)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards results and localIdx across groups
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			payload, err := json.Marshal(map[string]any{
				"queries": g.raws, "timeout_ms": req.TimeoutMs,
			})
			if err != nil {
				mu.Lock()
				for _, i := range g.indices {
					results[i] = errorItem(err)
				}
				mu.Unlock()
				return
			}
			res := rt.forward(ctx, g.cands, "/api/v1/batch", payload, false)
			var sub struct {
				Results []json.RawMessage `json:"results"`
			}
			if res.err == nil && res.status == http.StatusOK &&
				json.Unmarshal(res.body, &sub) == nil && len(sub.Results) == len(g.indices) {
				mu.Lock()
				for k, i := range g.indices {
					results[i] = sub.Results[k]
				}
				mu.Unlock()
				return
			}
			// The whole group failed over to the floor: answer each
			// query from the local engine.
			mu.Lock()
			localIdx = append(localIdx, g.indices...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	for _, i := range localIdx {
		results[i] = rt.localBatchItem(ctx, req.Queries[i])
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// handleFeedback routes a measured outcome to the shard that owns the
// instance — where the adaptive evidence for that region lives. With
// every backend down the feedback is refused (503): accepting it into a
// local store nothing ever queries would silently discard it.
func (rt *Router) handleFeedback(w http.ResponseWriter, r *http.Request) {
	body, q, ok := rt.readQuery(w, r)
	if !ok {
		return
	}
	ctx, cancel := requestCtx(r, 0)
	defer cancel()
	res := rt.forward(ctx, rt.ring.candidates(shardHash(q.Expr, q.Instance)), "/api/v1/feedback", body, false)
	if res.err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("feedback not stored: %w", res.err))
		return
	}
	relay(w, res)
}

// handleExpressions asks any up backend, falling back to the local
// engine's registry — the one endpoint where any replica's answer is as
// good as the owner's.
func (rt *Router) handleExpressions(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
	defer cancel()
	for _, b := range rt.backends {
		if !b.up.Load() {
			continue
		}
		if res := b.conns.exchange(ctx, "/api/v1/expressions", nil); res.err == nil && res.status == http.StatusOK {
			relay(w, res)
			return
		}
	}
	if rt.cfg.Local != nil {
		writeJSON(w, http.StatusOK, rt.cfg.Local.ListExpressions())
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, errNoBackend)
}

// readQuery reads the capped body and leniently extracts the shard-key
// fields, replying 400 on garbage.
func (rt *Router) readQuery(w http.ResponseWriter, r *http.Request) ([]byte, queryBody, bool) {
	body, ok := readBody(w, r)
	if !ok {
		return nil, queryBody{}, false
	}
	var q queryBody
	if err := decodeQueryBody(body, &q); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return nil, queryBody{}, false
	}
	return body, q, true
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRelayBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil, false
	}
	return body, true
}

// requestCtx bounds the whole routed request by the client's
// timeout_ms; individual attempts are further bounded by
// AttemptTimeout.
func requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	if timeoutMs > 0 {
		return context.WithTimeout(r.Context(), time.Duration(timeoutMs)*time.Millisecond)
	}
	return r.Context(), func() {}
}

// relay writes a backend response through unchanged, its confidence
// header included.
func relay(w http.ResponseWriter, res attemptResult) {
	if v := res.header[ConfidenceHeader]; len(v) > 0 {
		w.Header()[ConfidenceHeader] = v
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
