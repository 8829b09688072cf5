package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced replay: a name, the span that
// caused it (-1 for a request's root span), and start/end in nanoseconds
// since the tracer's epoch. Spans of one request share its root.
type span struct {
	name       string
	parent     int32
	start, end int64
}

// tracer keeps every span in memory; write dumps them once the run ends,
// so recording costs two clock reads and an append.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) { t.spans[id].end = int64(time.Since(t.epoch)) }

// layerTotals sums, per span name, the self time (a span's duration minus
// the part of it its children cover) and the total duration, in
// nanoseconds, plus the number of spans.
type layerTotal struct {
	self, total int64
	n           int
}

func (t *tracer) totals() map[string]*layerTotal {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string]*layerTotal)
	for i, s := range t.spans {
		// Children are recorded in start order; merge their intervals,
		// clipped to the parent, and subtract the covered length.
		covered, reach := int64(0), s.start
		for _, c := range children[i] {
			lo, hi := max(t.spans[c].start, reach), min(t.spans[c].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.name] = lt
		}
		lt.total += s.end - s.start
		lt.self += s.end - s.start - covered
		lt.n++
	}
	return out
}

// write dumps the spans as text, one per line: id, parent, name, start
// and end in nanoseconds.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# id parent name start_ns end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d %d %s %d %d\n", i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
