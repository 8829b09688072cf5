package router

import (
	"context"
	"sync"
	"time"
)

// Active health probing: every ProbeEvery the router GETs each
// backend's /healthz. DownAfter consecutive failures mark a backend
// down and force its breaker open (probes are ground truth, no windowed
// evidence needed); the first success after a down spell marks it up
// and closes the breaker — recovery after a restart is automatic,
// within one probe interval of the backend answering again.

func (rt *Router) probeLoop() {
	t := time.NewTicker(rt.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes every backend concurrently — sequential probes of a
// half-dead fleet would stack ProbeTimeouts past the probe interval.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			rt.probeOne(b)
		}(b)
	}
	wg.Wait()
}

// probeOne runs one health probe and folds the result into the
// backend's up/down state and breaker. Only this prober goroutine
// writes consecFails.
func (rt *Router) probeOne(b *backendState) {
	b.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	// Ready means ready: a 503 (reloading, saturated) is a probe
	// failure, steering shard-owner traffic at the first retry candidate
	// until the backend has headroom again.
	res := b.conns.exchange(ctx, "/healthz", nil)
	if res.err == nil && res.status >= 200 && res.status < 300 {
		b.consecFails = 0
		if !b.up.Swap(true) {
			// Down -> up transition: the probe proved the backend answers
			// again, so the breaker closes now rather than after its own
			// half-open timer.
			b.br.probeRecovered()
		}
		return
	}
	b.probeFails.Add(1)
	b.consecFails++
	if b.consecFails >= rt.cfg.DownAfter {
		if b.up.Swap(false) {
			b.br.forceOpen()
		}
	}
}
