package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/faultinject"
	"lamb/internal/outcomes"
	"lamb/internal/profile"
)

// The chaos suite kills, starves, and corrupts a real serving process
// and asserts the survivability contract: feedback recovers to the last
// snapshot, in-flight clients get prompt errors instead of hangs, and
// injected faults are surfaced, not swallowed. Process-level tests
// re-exec the test binary as `lamb serve` via TestChaosServeHelper;
// in-process tests arm failpoints directly. All tests are named
// TestChaos* so CI runs them with `go test -race -run Chaos`.

const (
	serveHelperEnv = "LAMB_SERVE_HELPER"
	serveArgsEnv   = "LAMB_SERVE_ARGS"
	// serveArgsSep joins serve flags in the env var; it cannot appear in
	// any flag value.
	serveArgsSep = "\x1f"
)

// TestChaosServeHelper is not a test: it is the subprocess body the
// chaos tests re-exec the test binary into. Gated on an env var so a
// normal `go test` run skips it.
func TestChaosServeHelper(t *testing.T) {
	if os.Getenv(serveHelperEnv) != "1" {
		t.Skip("subprocess helper; only runs re-execed by the chaos tests")
	}
	args := strings.Split(os.Getenv(serveArgsEnv), serveArgsSep)
	if err := cmdServe(args); err != nil {
		fmt.Fprintf(os.Stderr, "lamb serve helper: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serveProc is one re-execed serving process under chaos.
type serveProc struct {
	t    *testing.T
	cmd  *osexec.Cmd
	addr string
	done chan error

	mu    sync.Mutex
	lines []string
}

// startServeProc re-execs the test binary as `lamb serve args...` with
// extraEnv appended (e.g. LAMB_FAULTPOINTS), waits for the listen
// address on stderr, and returns the running process.
func startServeProc(t *testing.T, extraEnv []string, args ...string) *serveProc {
	t.Helper()
	p, err := tryStartServeProc(t, extraEnv, args...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tryStartServeProc is startServeProc returning the boot failure
// instead of fataling, so callers racing for a reserved port (see
// startServeOnReservedPort) can retry.
func tryStartServeProc(t *testing.T, extraEnv []string, args ...string) (*serveProc, error) {
	t.Helper()
	cmd := osexec.Command(os.Args[0], "-test.run", "^TestChaosServeHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		serveHelperEnv+"=1",
		serveArgsEnv+"="+strings.Join(args, serveArgsSep))
	cmd.Env = append(cmd.Env, extraEnv...)
	dieWithTestBinary(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serveProc{t: t, cmd: cmd, done: make(chan error, 1)}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.lines = append(p.lines, line)
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "lamb serve: listening on "); ok {
				if addr, _, ok := strings.Cut(rest, " "); ok {
					addrc <- addr
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("server exited before announcing its address; stderr:\n%s", p.stderrText())
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("server never announced its address; stderr:\n%s", p.stderrText())
	}
}

func (p *serveProc) url(path string) string { return "http://" + p.addr + path }

func (p *serveProc) stderrText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// wait blocks until the process exits and returns its exit code
// (-1 when killed by a signal).
func (p *serveProc) wait(timeout time.Duration) int {
	p.t.Helper()
	select {
	case err := <-p.done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*osexec.ExitError); ok {
			return ee.ExitCode()
		}
		p.t.Fatalf("wait: %v", err)
		return -1
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		p.t.Fatalf("server did not exit within %v; stderr:\n%s", timeout, p.stderrText())
		return -1
	}
}

func (p *serveProc) signal(sig os.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatalf("signal %v: %v", sig, err)
	}
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// procStats fetches /api/v1/stats without a testing.T (safe in polling
// conditions that tolerate transient failure).
func procStats(url string) (serveStats, error) {
	var s serveStats
	resp, err := http.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, jsonDecode(resp, &s)
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

const ciProfile = "../../testdata/profile-ci.json"

// TestChaosKillRestartRecoversOutcomes is the durability acceptance
// test: feedback under traffic, SIGKILL mid-serve, restart on the same
// -outcomes file, and the accumulated learning is back — bounded only
// by the snapshot interval, which the test closes by waiting for the
// snapshot to contain everything before killing.
func TestChaosKillRestartRecoversOutcomes(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "outcomes.json")
	args := []string{"-addr", "127.0.0.1:0", "-profile", ciProfile,
		"-outcomes", outPath, "-snapshot-every", "50ms"}
	p := startServeProc(t, nil, args...)

	const algs, reps = 3, 2
	for rep := 0; rep < reps; rep++ {
		for alg := 1; alg <= algs; alg++ {
			resp, body, err := postJSONRaw(p.url("/api/v1/feedback"), engine.Feedback{
				Expr: "aatb", Instance: []int{80, 514, 768}, Algorithm: alg, Seconds: float64(alg) * 1e-3,
			})
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("feedback: %v %s", err, body)
			}
		}
	}
	// Wait until a snapshot holds every outcome, then kill without
	// warning: nothing accepted before the snapshot may be lost.
	waitFor(t, 10*time.Second, "snapshot to contain all feedback", func() bool {
		snap, err := outcomes.ReadFile(outPath)
		if err != nil {
			return false
		}
		total := 0
		for _, rec := range snap.Records {
			for _, o := range rec.Outcomes {
				total += o.Count
			}
		}
		return total == algs*reps
	})
	p.signal(syscall.SIGKILL)
	if code := p.wait(10 * time.Second); code == 0 {
		t.Fatal("SIGKILL'd server reported a clean exit")
	}

	// Restart on the same snapshot file: the memory must come back.
	p2 := startServeProc(t, nil, args...)
	stats, err := procStats(p2.url("/api/v1/stats"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FeedbackRestored != algs || stats.FeedbackInstances != 1 {
		t.Fatalf("restored stats: FeedbackRestored=%d FeedbackInstances=%d, want %d/1\nstderr:\n%s",
			stats.FeedbackRestored, stats.FeedbackInstances, algs, p2.stderrText())
	}
	// The restored evidence serves: an adaptive query on the instance
	// answers informed.
	resp, body, err := postJSONRaw(p2.url("/api/v1/query"), engine.Query{
		Expr: "aatb", Instance: []int{80, 514, 768}, Strategy: "adaptive",
	})
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive query after restore: %v %s", err, body)
	}
	if stats, err = procStats(p2.url("/api/v1/stats")); err != nil || stats.AdaptiveInformed != 1 {
		t.Fatalf("restored outcomes did not inform the adaptive query: %+v (err %v)", stats, err)
	}

	p2.signal(syscall.SIGTERM)
	if code := p2.wait(10 * time.Second); code != 0 {
		t.Fatalf("clean shutdown exited %d; stderr:\n%s", code, p2.stderrText())
	}
}

// TestChaosKillMidFlightClientsGetErrors: SIGKILL with a query in
// flight. The client must get a prompt connection error — not a hang
// for the query's (injected 10s) duration.
func TestChaosKillMidFlightClientsGetErrors(t *testing.T) {
	p := startServeProc(t,
		[]string{faultinject.EnvVar + "=engine.query=sleep:10s"},
		"-addr", "127.0.0.1:0")

	type outcome struct {
		status int
		err    error
	}
	resc := make(chan outcome, 1)
	go func() {
		resp, _, err := postJSONRaw(p.url("/api/v1/query"), engine.Query{Expr: "aatb", Instance: []int{10, 20, 30}})
		if err != nil {
			resc <- outcome{0, err}
			return
		}
		resc <- outcome{resp.StatusCode, nil}
	}()
	// The query is in flight once the engine has counted it.
	waitFor(t, 10*time.Second, "query to be in flight", func() bool {
		s, err := procStats(p.url("/api/v1/stats"))
		return err == nil && s.Queries >= 1
	})
	killed := time.Now()
	p.signal(syscall.SIGKILL)
	select {
	case res := <-resc:
		if res.err == nil {
			t.Fatalf("client got status %d from a killed server", res.status)
		}
		if d := time.Since(killed); d > 3*time.Second {
			t.Fatalf("client error took %v after the kill", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after the server was killed")
	}
	p.wait(10 * time.Second)
}

// TestChaosSnapshotWriteFailure: with the snapshot write failpoint
// armed, periodic snapshots fail visibly (counter climbs, serving
// continues) and the final shutdown snapshot failure is a non-zero
// exit, not a silent loss.
func TestChaosSnapshotWriteFailure(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "outcomes.json")
	p := startServeProc(t,
		[]string{faultinject.EnvVar + "=outcomes.write=error"},
		"-addr", "127.0.0.1:0", "-outcomes", outPath, "-snapshot-every", "50ms")

	waitFor(t, 10*time.Second, "a snapshot error to be counted", func() bool {
		s, err := procStats(p.url("/api/v1/stats"))
		return err == nil && s.Server.SnapshotErrors >= 1
	})
	// Snapshot failures must not take queries down with them.
	resp, body, err := postJSONRaw(p.url("/api/v1/query"), engine.Query{Expr: "aatb", Instance: []int{10, 20, 30}})
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query during snapshot failures: %v %s", err, body)
	}
	p.signal(syscall.SIGTERM)
	if code := p.wait(10 * time.Second); code == 0 {
		t.Fatalf("shutdown with a failed final snapshot exited clean; stderr:\n%s", p.stderrText())
	}
}

// TestChaosSIGHUPReloadsProfiles: SIGHUP re-reads the -profile store in
// a live process; the generation climbs without dropping the listener.
func TestChaosSIGHUPReloadsProfiles(t *testing.T) {
	p := startServeProc(t, nil, "-addr", "127.0.0.1:0", "-profile", ciProfile)
	s, err := procStats(p.url("/api/v1/stats"))
	if err != nil || s.Profile == nil || s.Profile.Generation != 1 {
		t.Fatalf("boot stats %+v (err %v)", s.Profile, err)
	}
	p.signal(syscall.SIGHUP)
	waitFor(t, 10*time.Second, "reload generation to advance", func() bool {
		s, err := procStats(p.url("/api/v1/stats"))
		return err == nil && s.Profile != nil && s.Profile.Generation == 2
	})
	p.signal(syscall.SIGTERM)
	if code := p.wait(10 * time.Second); code != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", code, p.stderrText())
	}
}

// TestChaosReloadUnderTraffic races reloads (with injected latency
// widening the swap window) against queries and health checks,
// in-process so -race watches every access.
func TestChaosReloadUnderTraffic(t *testing.T) {
	if err := faultinject.Arm("serve.reload", "sleep:10ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	path := writeTestProfileStore(t, "chaos-reload.json")
	set, meta, err := profile.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Profiles: set, ProfileMeta: meta})
	srv := httptest.NewServer(newServer(eng, serveOptions{
		ProfilePath: path, Backend: exec.NewDefaultSimulated().Name(),
	}).handler())
	t.Cleanup(srv.Close)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, body, err := postJSONRaw(srv.URL+"/api/v1/query", engine.Query{
					Expr: "aatb", Instance: []int{15 + w, 25 + i, 35}, Strategy: "min-predicted",
				})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query during chaos reload: %d %s", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if resp, body, err := postJSONRaw(srv.URL+"/api/v1/admin/reload", struct{}{}); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("reload %d: %v %s", i, err, body)
				return
			}
		}
	}()
	// Health probes during the swaps must always answer: 200 ready or
	// 503 mid-reload, never a hang or a 5xx surprise.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			resp, err := http.Get(srv.URL + "/healthz")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("healthz status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	if hits := faultinject.Hits("serve.reload"); hits != 5 {
		t.Fatalf("serve.reload fired %d times, want 5", hits)
	}
	stats, err := procStats(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Profile == nil || stats.Profile.Generation != 6 {
		t.Fatalf("generation %+v, want 6", stats.Profile)
	}
}
