package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lamb/internal/engine"
	"lamb/internal/router"
)

// cmdRoute runs the fault-tolerant shard router in front of a fleet of
// `lamb serve` backends: queries consistent-hash by (expression,
// log-shape octave) so each region's adaptive feedback accumulates on
// its owning shard; health probes, per-backend circuit breakers, and
// capped-backoff retries keep a backend's death invisible to clients;
// and when every backend is down the router still answers from a local
// in-process engine on the min-flops discriminant, the record stamped
// Degraded "no-backend". With -merge-every the router also gossips
// outcome snapshots between backends so feedback learned on one shard
// strengthens selection fleet-wide.
//
// The HTTP surface mirrors serve (query/batch/feedback/expressions)
// plus the router's own /healthz and /api/stats (backend up/down and
// breaker state, retry/hedge/degradation/gossip counters).
func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	c := registerBackend(fs)
	addr := fs.String("addr", "127.0.0.1:8373", "listen address (use :0 for an ephemeral port)")
	backends := fs.String("backends", "", "comma-separated lamb serve base URLs (required)")
	probeEvery := fs.Duration("probe-every", time.Second, "health-probe interval")
	probeTimeout := fs.Duration("probe-timeout", 500*time.Millisecond, "per-probe timeout")
	downAfter := fs.Int("down-after", 2, "consecutive probe failures that mark a backend down")
	retries := fs.Int("retries", 2, "additional backends a failed forward tries")
	backoff := fs.Duration("backoff", 25*time.Millisecond, "base retry backoff (full jitter)")
	backoffMax := fs.Duration("backoff-max", 500*time.Millisecond, "retry backoff cap")
	attemptTimeout := fs.Duration("attempt-timeout", 5*time.Second, "per-attempt forward timeout")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge timed (oracle) queries after this delay (0 disables)")
	mergeEvery := fs.Duration("merge-every", 0, "anti-entropy outcome-gossip interval (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		return errors.New("route requires -backends URL[,URL...]")
	}
	// The local fallback engine: profile-less, min-flops only — the
	// floor of the degradation ladder, not a replacement shard.
	local, err := c.engine(engine.DefaultBindEntries)
	if err != nil {
		return err
	}
	rt, err := router.New(router.Config{
		Backends:       urls,
		ProbeEvery:     *probeEvery,
		ProbeTimeout:   *probeTimeout,
		DownAfter:      *downAfter,
		Retries:        *retries,
		BackoffBase:    *backoff,
		BackoffMax:     *backoffMax,
		AttemptTimeout: *attemptTimeout,
		HedgeAfter:     *hedgeAfter,
		MergeEvery:     *mergeEvery,
		Local:          local,
	})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()

	srv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "lamb route: listening on %s (%d backends)\n", ln.Addr(), len(urls))

	select {
	case err := <-errc:
		return err
	case <-sigc:
		fmt.Fprintln(os.Stderr, "lamb route: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
