package outcomes

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The snapshot reader. A snapshot is read whole, then parsed in one
// pass when it is in the canonical form Snapshot.Encode writes; any
// other input goes to encoding/json unchanged. The canonical form is:
//
//   - keys spelt exactly as the struct tags, each at most once per
//     object (unknown, case-folded and duplicate keys fall back);
//   - strings of printable ASCII without escapes (any backslash, control
//     byte or non-ASCII byte falls back);
//   - numbers in JSON's grammar, converted by strconv exactly as
//     encoding/json converts them (integers where the field is an int);
//   - no null, and nothing after the closing brace but whitespace.
//
// Within that form the one-pass parser decodes what encoding/json
// decodes, down to empty-but-present arrays decoding to empty, non-nil
// slices. Everything outside it — including every input encoding/json
// rejects — takes the encoding/json path, so the inputs DecodeSnapshot
// accepts, and what they decode to, do not depend on which path ran.

// decodeSnapshot decodes a snapshot from data, the bytes read from the
// source, and readErr, the error that ended the read (nil at EOF), then
// validates it. The encoding/json fallback sees the same byte stream,
// read error included, that it would have read from the source itself.
func decodeSnapshot(data []byte, readErr error) (*Snapshot, error) {
	var s Snapshot
	if readErr != nil || !parseCanonical(data, &s) {
		s = Snapshot{}
		var r io.Reader = bytes.NewReader(data)
		if readErr != nil {
			r = io.MultiReader(r, errReader{readErr})
		}
		if err := json.NewDecoder(r).Decode(&s); err != nil {
			return nil, fmt.Errorf("outcomes: decoding snapshot: %w", err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseCanonical decodes data into s, which must be zero, and reports
// whether data was in the canonical form. On false, s holds a partial
// decode the caller discards.
func parseCanonical(data []byte, s *Snapshot) bool {
	p := snapParser{b: data, strs: make(map[string]string)}
	if !p.snapshot(s) {
		return false
	}
	p.ws()
	return p.i == len(p.b)
}

// snapParser is the one-pass parser's cursor and its arenas: the
// instances and the outcome lists of a snapshot are cut from a few
// shared backing arrays (capped, so an append to one never reaches
// another), and repeated expression names and sources share one string.
type snapParser struct {
	b    []byte
	i    int
	strs map[string]string
	// dims and outs collect the current array; ints and outArena are the
	// arenas finished arrays are copied into.
	dims     []int
	outs     []SnapshotOutcome
	ints     []int
	outArena []SnapshotOutcome
}

// arenaChunk is the least number of elements a fresh arena holds.
const arenaChunk = 1024

// cut copies v into the arena and returns the copy, capped at its
// length. An empty v gives an empty, non-nil slice, as encoding/json
// decodes [].
func cut[T any](arena *[]T, v []T) []T {
	if len(v) == 0 {
		return make([]T, 0)
	}
	if cap(*arena)-len(*arena) < len(v) {
		*arena = make([]T, 0, max(len(v), arenaChunk))
	}
	start := len(*arena)
	*arena = append(*arena, v...)
	return (*arena)[start:len(*arena):len(*arena)]
}

func (p *snapParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (p *snapParser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses an object whose keys are drawn from keys, each at most
// once, calling value with the key after its colon. Any other key ends
// the parse.
func (p *snapParser) object(keys []string, value func(key string) bool) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen uint
	for {
		b, ok := p.str()
		if !ok {
			return false
		}
		f := -1
		for i, k := range keys {
			if k == string(b) {
				f = i
				break
			}
		}
		if f < 0 || seen&(1<<f) != 0 || !p.next(':') {
			return false
		}
		seen |= 1 << f
		if !value(keys[f]) {
			return false
		}
		if !p.next(',') {
			return p.next('}')
		}
	}
}

// array parses an array, calling elem for each element.
func (p *snapParser) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !p.next(',') {
			return p.next(']')
		}
	}
}

// str parses an escape-free string of printable ASCII and returns its
// bytes, which alias the input.
func (p *snapParser) str() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < ' ' || c == '\\' || c >= 0x80:
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// intern returns a string with b's bytes, shared by every equal b.
func (p *snapParser) intern(b []byte) string {
	if s, ok := p.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	p.strs[s] = s
	return s
}

// number parses a number in JSON's grammar and returns its text and
// whether it is an integer (no fraction, no exponent).
func (p *snapParser) number() (text []byte, integer, ok bool) {
	p.ws()
	start := p.i
	p.skip('-')
	switch {
	case p.skip('0'):
	case p.digits() == 0:
		return nil, false, false
	}
	integer = true
	if p.skip('.') {
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if p.skip('e') || p.skip('E') {
		if !p.skip('+') {
			p.skip('-')
		}
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return p.b[start:p.i], integer, true
}

// skip consumes c if it comes next, without skipping whitespace.
func (p *snapParser) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (p *snapParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// int parses an integer that fits an int, as encoding/json decodes an
// int field.
func (p *snapParser) int() (int, bool) {
	text, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(text), 10, strconv.IntSize)
	return int(n), err == nil
}

// float parses a number that fits a float64, as encoding/json decodes a
// float64 field.
func (p *snapParser) float() (float64, bool) {
	text, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(text), 64)
	return f, err == nil
}

// The keys of the three object kinds, as their struct tags spell them.
var (
	snapshotKeys = []string{"schema_version", "created_at", "created_unix", "half_life_seconds", "profile", "records"}
	recordKeys   = []string{"expr", "instance", "outcomes"}
	outcomeKeys  = []string{"algorithm", "count", "weight", "mean", "m2", "source"}
)

func (p *snapParser) snapshot(s *Snapshot) bool {
	return p.object(snapshotKeys, func(key string) bool {
		var ok bool
		switch key {
		case "schema_version":
			s.SchemaVersion, ok = p.int()
		case "created_at":
			var b []byte
			b, ok = p.str()
			s.CreatedAt = string(b)
		case "created_unix":
			s.CreatedUnix, ok = p.float()
		case "half_life_seconds":
			s.HalfLifeSeconds, ok = p.float()
		case "profile":
			var b []byte
			b, ok = p.str()
			s.Profile = string(b)
		case "records":
			s.Records = []SnapshotRecord{}
			ok = p.array(func() bool {
				var rec SnapshotRecord
				if !p.record(&rec) {
					return false
				}
				s.Records = append(s.Records, rec)
				return true
			})
		}
		return ok
	})
}

func (p *snapParser) record(rec *SnapshotRecord) bool {
	return p.object(recordKeys, func(key string) bool {
		var ok bool
		switch key {
		case "expr":
			var b []byte
			b, ok = p.str()
			rec.Expr = p.intern(b)
		case "instance":
			p.dims = p.dims[:0]
			ok = p.array(func() bool {
				d, ok := p.int()
				p.dims = append(p.dims, d)
				return ok
			})
			rec.Instance = cut(&p.ints, p.dims)
		case "outcomes":
			p.outs = p.outs[:0]
			ok = p.array(func() bool {
				var o SnapshotOutcome
				if !p.outcome(&o) {
					return false
				}
				p.outs = append(p.outs, o)
				return true
			})
			rec.Outcomes = cut(&p.outArena, p.outs)
		}
		return ok
	})
}

func (p *snapParser) outcome(o *SnapshotOutcome) bool {
	return p.object(outcomeKeys, func(key string) bool {
		var ok bool
		switch key {
		case "algorithm":
			o.Algorithm, ok = p.int()
		case "count":
			o.Count, ok = p.int()
		case "weight":
			o.Weight, ok = p.float()
		case "mean":
			o.Mean, ok = p.float()
		case "m2":
			o.M2, ok = p.float()
		case "source":
			var b []byte
			b, ok = p.str()
			o.Source = p.intern(b)
		}
		return ok
	})
}
