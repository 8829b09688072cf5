package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running `lamb serve` or `lamb route`.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // announced listen address
	// logDone closes when the stderr reader sees EOF; tail keeps the last
	// lines for error reports.
	logDone chan struct{}
	tail    *tailBuffer
}

// bootTimeout bounds the wait for the announced listen line.
const bootTimeout = 60 * time.Second

// startProc execs bin with args and waits for the listen line the
// subcommand prints to stderr once its listener is bound (the address is
// -addr 127.0.0.1:0, so the port is known only from that line). The
// child is killed if this process dies.
func startProc(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logDone: make(chan struct{}), tail: &tailBuffer{}}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			p.tail.add(line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !announced {
				announced = true
				addrc <- strings.Fields(rest)[0]
			}
		}
		// Drain anything the scanner refused (over-long lines) so the
		// child never blocks on a full pipe.
		io.Copy(io.Discard, stderr)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.logDone:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.tail)
	case <-time.After(bootTimeout):
		p.stop()
		return nil, fmt.Errorf("%s did not announce a listen address within %v: %s", name, bootTimeout, p.tail)
	}
}

// stop sends SIGTERM, waits for the graceful exit (SIGKILL after 15 s)
// and reaps the process. It returns an error when the process did not
// exit cleanly.
func (p *proc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.logDone:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.logDone
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w: %s", p.name, err, p.tail)
	}
	return nil
}

func (p *proc) url() string { return "http://" + p.addr }

// cpuSeconds reads the process's user + system CPU time, all threads
// included, from /proc/<pid>/stat (in USER_HZ ticks, 100 per second on
// Linux).
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat for %s", p.name)
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %s", p.name)
	}
	return (ut + st) / 100, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// tailBuffer keeps the last few stderr lines of a child.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 8 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}
