package router

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Relay connections: the router speaks HTTP/1.1 to each backend on its
// own keep-alive connections. An exchange runs on the calling goroutine
// from the request line to the last body byte, so a forward costs one
// goroutine and no hand-offs. Every backend call goes through here: the
// forward, the health probe, the gossip fetch and push, and
// /expressions.

// maxIdlePerBackend caps the idle connections kept for one backend.
// Beyond it a finished connection is closed, not pooled.
const maxIdlePerBackend = 64

// relayConn is one keep-alive connection with its buffers.
type relayConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// connPool is one backend's LIFO stack of idle connections: the most
// recently used connection is the likeliest still to be open.
type connPool struct {
	addr   string // dial address, host:port
	host   string // Host header
	prefix string // the base URL's path, ahead of every request path
	dialer net.Dialer

	mu     sync.Mutex
	idle   []*relayConn
	closed bool
}

// newConnPool parses a backend base URL. Only http:// is accepted:
// serve speaks no TLS.
func newConnPool(base string) (*connPool, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("router: backend %q: %w", base, err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("router: backend %q: only http:// URLs are supported", base)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return &connPool{
		addr:   net.JoinHostPort(u.Hostname(), port),
		host:   u.Host,
		prefix: strings.TrimRight(u.EscapedPath(), "/"),
	}, nil
}

// errBodyTooLarge fails an answer longer than the relay cap, rather than
// relaying a truncated body.
var errBodyTooLarge = fmt.Errorf("backend answer exceeds the %d-byte relay cap", maxRelayBytes)

// pastDeadline is the deadline a cancelled exchange is cut off with.
var pastDeadline = time.Unix(1, 0)

// exchange sends one request (a POST when payload is non-nil, else a
// GET) and reads the whole answer. A pooled connection that fails before
// the first response byte was most likely closed by the backend while
// idle, so the request is sent once more on a new connection.
func (p *connPool) exchange(ctx context.Context, path string, payload []byte) attemptResult {
	c := p.get()
	reused := c != nil
	for {
		if c == nil {
			nc, err := p.dialer.DialContext(ctx, "tcp", p.addr)
			if err != nil {
				return attemptResult{err: err}
			}
			c = &relayConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
		}
		res, answered := p.roundTrip(ctx, c, path, payload)
		if res.err == nil || answered || !reused || ctx.Err() != nil {
			return res
		}
		c, reused = nil, false
	}
}

// roundTrip runs one exchange on c, then pools c or closes it. answered
// reports whether any of the response arrived. The context's deadline
// bounds the exchange, and its cancellation cuts it off by moving the
// deadline into the past.
func (p *connPool) roundTrip(ctx context.Context, c *relayConn, path string, payload []byte) (res attemptResult, answered bool) {
	deadline, _ := ctx.Deadline()
	c.nc.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { c.nc.SetDeadline(pastDeadline) })
	res, answered, reusable := p.send(c, path, payload)
	if !stop() {
		// Cancelled: the connection's deadline is (or is about to be) in
		// the past, so it can carry nothing more.
		reusable = false
		if res.err != nil {
			res.err = ctx.Err()
		}
	}
	if res.err != nil {
		res.err = fmt.Errorf("%s %s: %w", p.host, path, res.err)
	}
	if reusable {
		p.put(c)
	} else {
		c.nc.Close()
	}
	return res, answered
}

// send writes the request and reads the answer in full. reusable is true
// only after a clean, complete answer without Connection: close.
func (p *connPool) send(c *relayConn, path string, payload []byte) (res attemptResult, answered, reusable bool) {
	bw := c.bw
	if payload != nil {
		bw.WriteString("POST ")
	} else {
		bw.WriteString("GET ")
	}
	bw.WriteString(p.prefix)
	bw.WriteString(path)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(p.host)
	if payload != nil {
		bw.WriteString("\r\nContent-Type: application/json\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(payload)), 10))
	}
	bw.WriteString("\r\n\r\n")
	bw.Write(payload)
	if err := bw.Flush(); err != nil {
		return attemptResult{err: err}, false, false
	}
	if _, err := c.br.Peek(1); err != nil {
		return attemptResult{err: err}, false, false
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return attemptResult{err: err}, true, false
	}
	body, err := readAnswer(resp)
	if err != nil {
		return attemptResult{err: err}, true, false
	}
	return attemptResult{status: resp.StatusCode, header: resp.Header, body: body}, true, !resp.Close
}

// readAnswer reads a response body framed by Content-Length, chunked
// encoding or the connection's close, failing one over the relay cap.
func readAnswer(resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxRelayBytes {
		return nil, errBodyTooLarge
	}
	if resp.ContentLength >= 0 {
		body := make([]byte, resp.ContentLength)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes+1))
	if err == nil && len(body) > maxRelayBytes {
		return nil, errBodyTooLarge
	}
	return body, err
}

func (p *connPool) get() *relayConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	c := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return c
}

// put pools c, or closes it when the pool is full or closed.
func (p *connPool) put(c *relayConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdlePerBackend {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.nc.Close()
}

// close closes every idle connection and stops pooling: connections
// still in use are closed when their exchange ends.
func (p *connPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}
