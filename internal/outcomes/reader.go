package outcomes

import (
	"fmt"

	"lamb/internal/cjson"
)

// The snapshot reader. A snapshot is read whole, then parsed in one
// pass by lamb/internal/cjson's Reader when it is in the canonical form
// Snapshot.Encode writes (exact keys, each at most once; escape-free
// ASCII strings; JSON-grammar numbers; no null; nothing after the
// closing brace but whitespace); any other input goes to encoding/json
// unchanged.
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
		if err := cjson.Fallback(data, readErr, &s, false); err != nil {
			return nil, fmt.Errorf("outcomes: decoding snapshot: %w", err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// parseCanonical decodes data into s, which must be zero, and reports
// whether data was in the canonical form. On false, s holds a partial
// decode the caller discards.
func parseCanonical(data []byte, s *Snapshot) bool {
	p := snapParser{Reader: cjson.NewReader(data), strs: make(map[string]string)}
	return p.snapshot(s) && p.End()
}

// snapParser is the one-pass parser's cursor and its arenas: the
// instances and the outcome lists of a snapshot are cut from a few
// shared backing arrays, and repeated expression names and sources
// share one string.
type snapParser struct {
	cjson.Reader
	strs map[string]string
	// dims and outs collect the current array; ints and outArena are the
	// arenas finished arrays are cut from.
	dims     []int
	outs     []SnapshotOutcome
	ints     []int
	outArena []SnapshotOutcome
}

// arenaChunk is the least number of elements a fresh arena holds.
const arenaChunk = 1024

// intern returns a string with b's bytes, shared by every equal b.
func (p *snapParser) intern(b []byte) string {
	if s, ok := p.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	p.strs[s] = s
	return s
}

// The keys of the three object kinds, as their struct tags spell them.
var (
	snapshotKeys = []string{"schema_version", "created_at", "created_unix", "half_life_seconds", "profile", "records"}
	recordKeys   = []string{"expr", "instance", "outcomes"}
	outcomeKeys  = []string{"algorithm", "count", "weight", "mean", "m2", "source"}
)

func (p *snapParser) snapshot(s *Snapshot) bool {
	return p.Object(snapshotKeys, func(key string) bool {
		var ok bool
		switch key {
		case "schema_version":
			s.SchemaVersion, ok = p.Int()
		case "created_at":
			var b []byte
			b, ok = p.Str()
			s.CreatedAt = string(b)
		case "created_unix":
			s.CreatedUnix, ok = p.Float()
		case "half_life_seconds":
			s.HalfLifeSeconds, ok = p.Float()
		case "profile":
			var b []byte
			b, ok = p.Str()
			s.Profile = string(b)
		case "records":
			s.Records = []SnapshotRecord{}
			ok = p.Array(func() bool {
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
	return p.Object(recordKeys, func(key string) bool {
		var ok bool
		switch key {
		case "expr":
			var b []byte
			b, ok = p.Str()
			rec.Expr = p.intern(b)
		case "instance":
			p.dims, ok = p.Ints(p.dims[:0])
			rec.Instance = cjson.Cut(&p.ints, p.dims, arenaChunk)
		case "outcomes":
			p.outs = p.outs[:0]
			ok = p.Array(func() bool {
				var o SnapshotOutcome
				if !p.outcome(&o) {
					return false
				}
				p.outs = append(p.outs, o)
				return true
			})
			rec.Outcomes = cjson.Cut(&p.outArena, p.outs, arenaChunk)
		}
		return ok
	})
}

func (p *snapParser) outcome(o *SnapshotOutcome) bool {
	return p.Object(outcomeKeys, func(key string) bool {
		var ok bool
		switch key {
		case "algorithm":
			o.Algorithm, ok = p.Int()
		case "count":
			o.Count, ok = p.Int()
		case "weight":
			o.Weight, ok = p.Float()
		case "mean":
			o.Mean, ok = p.Float()
		case "m2":
			o.M2, ok = p.Float()
		case "source":
			var b []byte
			b, ok = p.Str()
			o.Source = p.intern(b)
		}
		return ok
	})
}
