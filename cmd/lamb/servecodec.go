package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"lamb/internal/cjson"
	"lamb/internal/engine"
)

// Serve's request and response codec. Query and batch bodies are read
// whole into a pooled buffer and parsed in one pass when they are in
// the canonical form (lamb/internal/cjson); any other body is decoded by
// encoding/json from the same bytes, unknown fields disallowed, so what
// a request decodes to, and the error and status a bad one gets, do not
// depend on which path ran. Records and batch responses are appended
// into the same buffer, byte for byte what json.Encoder writes, and
// sent with one Write and a Content-Length.

// bufPool holds the buffers handlers read bodies into and encode
// responses into.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// maxPooledBuf is the largest buffer put back in the pool, so one huge
// batch does not stay pinned.
const maxPooledBuf = 256 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		*buf = (*buf)[:0]
		bufPool.Put(buf)
	}
}

// readBody reads r's size-capped body into *buf and returns it with the
// error that ended the read (nil at EOF).
func readBody(w http.ResponseWriter, r *http.Request, buf *[]byte) ([]byte, error) {
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := src.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// decodeRequest reads the size-capped request body into buf and decodes
// it into v, replying 400 (or 413 for an oversized body) on failure.
// parse, when given, decodes a body in the canonical form and reports
// false on any other, which encoding/json then decodes.
func decodeRequest[T any](w http.ResponseWriter, r *http.Request, buf *[]byte, v *T, parse func([]byte, *T) bool) bool {
	data, readErr := readBody(w, r, buf)
	err := decodeBody(data, readErr, v, parse)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	return false
}

// decodeBody decodes data, read up to readErr, into v: by parse when it
// takes data, by a strict json.Decoder over the same bytes otherwise. v
// is written only by the path that succeeds. A canonical body is an
// object followed by whitespace, and a json.Decoder returns an object at
// its closing brace without reading on, so a read error after it (a body
// past the size cap, say) fails neither path.
func decodeBody[T any](data []byte, readErr error, v *T, parse func([]byte, *T) bool) error {
	if parse != nil && parse(data, v) {
		return nil
	}
	return cjson.Fallback(data, readErr, v, true)
}

// The keys of the canonical request bodies, as their struct tags spell
// them.
var (
	queryRequestKeys = []string{"expr", "instance", "strategy", "timeout_ms"}
	batchRequestKeys = []string{"queries", "timeout_ms", "compute"}
	queryKeys        = []string{"expr", "instance", "strategy"}
)

// bodyParser parses canonical request bodies. The instances of a body
// are cut from one arena; a fresh arena holds at least chunk
// dimensions.
type bodyParser struct {
	cjson.Reader
	arena []int
	chunk int
}

// query parses one query object with the given keys; timeoutMs receives
// "timeout_ms" when keys hold it.
func (p *bodyParser) query(keys []string, q *engine.Query, timeoutMs *int) bool {
	return p.Object(keys, func(key string) bool {
		var ok bool
		var b []byte
		switch key {
		case "expr":
			b, ok = p.Str()
			q.Expr = string(b)
		case "instance":
			var dimBuf [16]int
			var dims []int
			dims, ok = p.Ints(dimBuf[:0])
			q.Instance = cjson.Cut(&p.arena, dims, p.chunk)
		case "strategy":
			b, ok = p.Str()
			q.Strategy = string(b)
		case "timeout_ms":
			*timeoutMs, ok = p.Int()
		}
		return ok
	})
}

// parseQueryRequest decodes a canonical /api/v1/query body into q.
func parseQueryRequest(data []byte, q *queryRequest) bool {
	p := bodyParser{Reader: cjson.NewReader(data)}
	var v queryRequest
	if !p.query(queryRequestKeys, &v.Query, &v.TimeoutMs) || !p.End() {
		return false
	}
	*q = v
	return true
}

// batchArenaChunk is the least number of dimensions a batch body's
// instance arena holds: 64 queries of four operands.
const batchArenaChunk = 256

// parseBatchRequest decodes a canonical /api/v1/batch body into req.
func parseBatchRequest(data []byte, req *batchRequest) bool {
	p := bodyParser{Reader: cjson.NewReader(data), chunk: batchArenaChunk}
	var v batchRequest
	ok := p.Object(batchRequestKeys, func(key string) bool {
		var ok bool
		switch key {
		case "queries":
			v.Queries = []engine.Query{}
			ok = p.Array(func() bool {
				var q engine.Query
				if !p.query(queryKeys, &q, nil) {
					return false
				}
				v.Queries = append(v.Queries, q)
				return true
			})
		case "timeout_ms":
			v.TimeoutMs, ok = p.Int()
		case "compute":
			v.Compute, ok = p.Bool()
		}
		return ok
	})
	if !ok || !p.End() {
		return false
	}
	*req = v
	return true
}

// writeAppended replies 200 with the JSON appendJSON appends to buf and
// a trailing newline, as json.Encoder writes v, in one Write. When
// appendJSON reports a value encoding/json refuses (NaN or ±Inf),
// encoding/json encodes v instead, so the reply and the logged error are
// what they always were.
func writeAppended(w http.ResponseWriter, buf *[]byte, v any, appendJSON func([]byte) ([]byte, bool)) {
	b, ok := appendJSON((*buf)[:0])
	*buf = b
	if !ok {
		writeJSON(w, http.StatusOK, v)
		return
	}
	b = append(b, '\n')
	*buf = b
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b); err != nil {
		logEncodeError(err)
	}
}

// appendBatchResponse appends resp as encoding/json marshals it.
func appendBatchResponse(b []byte, resp *batchResponse) ([]byte, bool) {
	ok := true
	b = append(b, `{"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var fine bool
			b, fine = appendBatchItem(b, &resp.Results[i])
			ok = ok && fine
		}
		b = append(b, ']')
	}
	return append(b, '}'), ok
}

// appendBatchItem appends one item: the embedded record's fields first,
// then result and error, each left out when empty.
func appendBatchItem(b []byte, it *batchItem) ([]byte, bool) {
	ok := true
	b = append(b, '{')
	start := len(b)
	if it.Record != nil {
		b, ok = engine.AppendRecordFields(b, it.Record)
	}
	if res := it.Result; res != nil {
		if len(b) > start {
			b = append(b, ',')
		}
		b = append(b, `"result":{"rows":`...)
		b = cjson.AppendInt(b, res.Rows)
		b = append(b, `,"cols":`...)
		b = cjson.AppendInt(b, res.Cols)
		b = append(b, `,"fused":`...)
		b = cjson.AppendBool(b, res.Fused)
		b = append(b, `,"checksum":`...)
		var fine bool
		b, fine = cjson.AppendFloat(b, res.Checksum)
		ok = ok && fine
		b = append(b, '}')
	}
	if it.Error != "" {
		if len(b) > start {
			b = append(b, ',')
		}
		b = append(b, `"error":`...)
		b = cjson.AppendString(b, it.Error)
	}
	return append(b, '}'), ok
}
