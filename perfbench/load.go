package main

import (
	"bytes"
	"net/http"
	"sync"
	"time"
)

// conns is the number of keep-alive connections, one closed-loop sender
// each: the host's two cores. Callers of the selection service block on
// the answer before they run any kernel, so a closed loop is their shape.
const conns = 2

// client posts pre-encoded bodies over at most conns keep-alive
// connections, kept idle between requests.
type client struct{ hc *http.Client }

func newClient() *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        2 * conns, // the workload's front and the reference server
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// post sends body to url and reads the whole answer into buf.
func (c *client) post(url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// answer is one completed request as a sender saw it.
type answer struct {
	sender int
	idx    int // pool index
	status int
	body   []byte // valid only during the callback
	err    error
	lat    time.Duration
}

// drive runs conns closed-loop senders against base. Each sender asks
// next for the pool index to send (false stops it), posts it, and hands
// the answer to handle on its own goroutine. drive returns once every
// sender has stopped.
func (c *client) drive(base string, pool []request, next func() (int, bool), handle func(answer)) {
	var wg sync.WaitGroup
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				idx, ok := next()
				if !ok {
					return
				}
				r := &pool[idx]
				start := time.Now()
				status, err := c.post(base+r.path, r.body, &buf)
				handle(answer{sender: s, idx: idx, status: status, body: buf.Bytes(), err: err, lat: time.Since(start)})
			}
		}(s)
	}
	wg.Wait()
}
