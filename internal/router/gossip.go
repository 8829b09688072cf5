package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"lamb/internal/faultinject"
)

// Anti-entropy gossip: every MergeEvery the router pulls each up
// backend's local outcome snapshot (GET /api/v1/outcomes — firsthand
// evidence only) and pushes it to every other up backend
// (POST /api/v1/admin/merge), weights discounted by mergeScale. The merge
// endpoint is idempotent (replace-by-source), so overlapping rounds,
// retries, and multiple routers gossiping the same fleet are all safe —
// convergence without coordination. This is what turns N shard-local
// feedback memories into fleet-wide learning: evidence measured where
// an instance is owned still strengthens the replicas that would serve
// it after a failover.

// mergeScale is the weight discount gossip posts with every merge:
// secondhand evidence counts half.
const mergeScale = 0.5

func (rt *Router) gossipLoop() {
	t := time.NewTicker(rt.cfg.MergeEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.mergeRound(context.Background())
		}
	}
}

// mergeRound runs one full exchange. Errors are counted, never fatal:
// gossip is a background repair process, and a failed round just means
// the next one has more to do.
func (rt *Router) mergeRound(ctx context.Context) {
	rt.mergeRounds.Add(1)
	var ups []*backendState
	for _, b := range rt.backends {
		if b.up.Load() {
			ups = append(ups, b)
		}
	}
	if len(ups) < 2 {
		return
	}
	for _, src := range ups {
		snap, err := rt.fetchOutcomes(ctx, src)
		if err != nil {
			rt.mergeErrors.Add(1)
			continue
		}
		for _, dst := range ups {
			if dst == src {
				continue
			}
			merged, err := rt.pushMerge(ctx, dst, src.url, snap)
			if err != nil {
				rt.mergeErrors.Add(1)
				continue
			}
			rt.mergedOutcomes.Add(uint64(merged))
		}
	}
}

// fetchOutcomes pulls one backend's local snapshot, raw — the router
// relays bytes, it does not interpret the schema.
func (rt *Router) fetchOutcomes(ctx context.Context, b *backendState) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	if err := faultinject.FireCtx(ctx, "router.merge"); err != nil {
		return nil, err
	}
	res := b.conns.exchange(ctx, "/api/v1/outcomes", nil)
	if res.err != nil {
		return nil, res.err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("outcomes export from %s: status %d", b.url, res.status)
	}
	return res.body, nil
}

// pushMerge posts a snapshot to one backend, attributed to the source
// backend it came from, and returns how many outcomes it installed.
func (rt *Router) pushMerge(ctx context.Context, dst *backendState, source string, snap []byte) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	path := "/api/v1/admin/merge?source=" + url.QueryEscape(source) +
		"&scale=" + url.QueryEscape(fmt.Sprintf("%g", mergeScale))
	res := dst.conns.exchange(ctx, path, snap)
	if res.err != nil {
		return 0, res.err
	}
	if res.status != http.StatusOK {
		return 0, fmt.Errorf("merge into %s: status %d: %s", dst.url, res.status, res.body)
	}
	var counts struct {
		Merged int `json:"merged"`
	}
	if err := json.Unmarshal(res.body, &counts); err != nil {
		return 0, err
	}
	return counts.Merged, nil
}

// MergeRound runs one gossip exchange synchronously — the knob tests
// and operators (via the route command's future admin surface) use to
// force convergence now instead of waiting for the ticker.
func (rt *Router) MergeRound(ctx context.Context) {
	rt.mergeRound(ctx)
}
