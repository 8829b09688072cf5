// Outcome-store persistence: a versioned JSON schema, mirroring
// lamb/internal/profile's store format, that makes the feedback memory
// a durable artifact. `lamb serve -outcomes FILE` restores the store at
// boot and snapshots it periodically and at shutdown (atomic
// temp-file+rename, so a crash mid-write never corrupts the last good
// snapshot); a SIGKILL loses at most one snapshot interval of feedback.
//
// The file format is one JSON object:
//
//	{
//	  "schema_version": 2,
//	  "created_at": "2026-08-07T12:00:00Z",
//	  "created_unix": 1786190400.0,
//	  "half_life_seconds": 3600,
//	  "profile": "PROFILE.json",
//	  "records": [
//	    {"expr": "AATB", "instance": [80,514,768], "outcomes": [
//	      {"algorithm": 2, "count": 3, "weight": 2.71, "mean": 0.0004, "m2": 1.2e-9}
//	    ]},
//	    ...
//	  ]
//	}
//
// Schema version 2 added the per-stream "m2" Welford sum backing the
// posterior variance; version-1 files (no m2) still restore, their
// spread seeded from the prior.
//
// Weights are decayed to the snapshot moment before encoding, and on
// restore the decay clock resumes from created_unix (or from the
// restoring store's now, if created_unix lies in its future) — so
// downtime itself decays the restored evidence, exactly as if the
// process had stayed up. Counts, weights, and means are serialised as
// float64 through encoding/json, whose shortest round-trip
// representation is exact: a restored store serves bit-for-bit the
// evidence the snapshot held (pinned by snapshot_test.go).
//
// Reading is one pass: ReadFile and DecodeSnapshot read the whole
// input, and the canonical form Encode writes is parsed directly into
// the Snapshot types (reader.go). Any other input — unknown,
// case-folded or duplicate keys, null, escaped strings, malformed
// numbers — is decoded by encoding/json as before, so the accepted
// inputs and what they decode to are the same on either path.
package outcomes

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"lamb/internal/expr"
	"lamb/internal/faultinject"
)

// SchemaVersion is the version of the snapshot file format this package
// writes. Decode accepts every version from 1 up to this one — older
// schemas are strict subsets (version 1 merely lacks "m2") — and
// rejects newer files rather than misreading them.
const SchemaVersion = 2

// Snapshot is the serialised form of a Store: every record's decayed
// evidence as of CreatedUnix.
type Snapshot struct {
	SchemaVersion int `json:"schema_version"`
	// CreatedAt is the human-readable RFC 3339 snapshot timestamp;
	// CreatedUnix is the same moment as unix seconds, the value the
	// decay clock resumes from on restore.
	CreatedAt   string  `json:"created_at,omitempty"`
	CreatedUnix float64 `json:"created_unix"`
	// HalfLifeSeconds records the decay configuration the weights were
	// accumulated under (informational; the restoring store keeps its
	// own configuration).
	HalfLifeSeconds float64 `json:"half_life_seconds,omitempty"`
	// Profile is the provenance tag of the profile store the engine was
	// serving when the snapshot was taken, so an operator can tell which
	// prior the recorded outcomes were blended against.
	Profile string           `json:"profile,omitempty"`
	Records []SnapshotRecord `json:"records"`
}

// SnapshotRecord is one (expression, instance) point's outcomes.
type SnapshotRecord struct {
	Expr     string            `json:"expr"`
	Instance expr.Instance     `json:"instance"`
	Outcomes []SnapshotOutcome `json:"outcomes"`
}

// SnapshotOutcome is one algorithm's aggregated evidence.
type SnapshotOutcome struct {
	// Algorithm is the paper's 1-based index into the instance's set.
	Algorithm int `json:"algorithm"`
	// Count is the raw number of measurements ever recorded (undecayed).
	Count int `json:"count"`
	// Weight is the decayed pseudo-count as of the snapshot moment.
	Weight float64 `json:"weight"`
	// Mean is the weighted mean of the reported seconds.
	Mean float64 `json:"mean"`
	// M2 is the stream's decayed Welford sum of squared deviations (its
	// variance is M2/Weight). Zero — including in version-1 snapshots,
	// which predate the field — means no tracked spread; the restoring
	// posterior falls back to the prior's.
	M2 float64 `json:"m2,omitempty"`
	// Source tags evidence merged from a peer process (Store.Merge);
	// empty for evidence fed back directly to this process. Optional, so
	// schema-version-1 snapshots from before cross-process merging read
	// back unchanged.
	Source string `json:"source,omitempty"`
}

// Snapshot captures the store's current contents — local and merged
// evidence alike — with every weight decayed to the snapshot moment.
// Records are sorted (expression, then instance, then algorithm and
// source) so snapshots are deterministic byte-for-byte for a given
// store state and clock. This is the durability artifact `lamb serve
// -outcomes` writes: a restart restores merged peer evidence too.
func (st *Store) Snapshot(profileID string) *Snapshot {
	return st.snapshot(profileID, false)
}

// SnapshotLocal is Snapshot restricted to this process's own evidence
// (the empty source): the export `lamb serve` offers on /api/outcomes
// for cross-process merging. Gossiping only locally observed outcomes
// keeps merge convergent — a peer's evidence is never re-attributed to
// this process and echoed back to it amplified.
func (st *Store) SnapshotLocal(profileID string) *Snapshot {
	return st.snapshot(profileID, true)
}

func (st *Store) snapshot(profileID string, localOnly bool) *Snapshot {
	// Under the lock, only decay and copy the evidence; records keep
	// their instance and key for life, so sorting and cloning happen
	// after the lock is released, off every Near's and Add's path.
	type entry struct {
		key string
		rec SnapshotRecord
	}
	st.mu.Lock()
	now, halfLife := st.now(), st.halfLife
	entries := make([]entry, 0, st.points)
	for rec := st.lru.next; rec != &st.lru; rec = rec.next {
		var outs []SnapshotOutcome
		for i := range rec.algs {
			s := &rec.algs[i]
			if localOnly && s.source != "" {
				continue
			}
			s.decayTo(now, halfLife)
			outs = append(outs, SnapshotOutcome{
				Algorithm: s.alg, Count: s.count, Weight: s.weight, Mean: s.mean, M2: s.m2, Source: s.source,
			})
		}
		if len(outs) == 0 {
			continue // a record holding only merged evidence, exported local-only
		}
		entries = append(entries, entry{key: rec.key, rec: SnapshotRecord{Expr: rec.ex.name, Instance: rec.inst, Outcomes: outs}})
	}
	st.mu.Unlock()

	slices.SortFunc(entries, func(a, b entry) int {
		if a.rec.Expr != b.rec.Expr {
			return strings.Compare(a.rec.Expr, b.rec.Expr)
		}
		return strings.Compare(a.key, b.key)
	})
	snap := &Snapshot{
		SchemaVersion:   SchemaVersion,
		CreatedAt:       time.Unix(0, int64(now*1e9)).UTC().Format(time.RFC3339),
		CreatedUnix:     now,
		HalfLifeSeconds: halfLife,
		Profile:         profileID,
		Records:         make([]SnapshotRecord, len(entries)),
	}
	for i, e := range entries {
		slices.SortFunc(e.rec.Outcomes, func(a, b SnapshotOutcome) int {
			if a.Algorithm != b.Algorithm {
				return cmp.Compare(a.Algorithm, b.Algorithm)
			}
			return strings.Compare(a.Source, b.Source)
		})
		e.rec.Instance = e.rec.Instance.Clone()
		snap.Records[i] = e.rec
	}
	return snap
}

// Validate checks a decoded snapshot's structural invariants: schema
// version, finite positive weights and means, positive dimensions and
// algorithm indices. Semantic validation — does the expression exist,
// is the algorithm index within its set — is the restoring engine's
// job, which knows the registry.
func (s *Snapshot) Validate() error {
	if s.SchemaVersion < 1 || s.SchemaVersion > SchemaVersion {
		return fmt.Errorf("outcomes: snapshot has schema version %d, this build reads 1 through %d",
			s.SchemaVersion, SchemaVersion)
	}
	for _, rec := range s.Records {
		if rec.Expr == "" {
			return fmt.Errorf("outcomes: snapshot record with empty expression")
		}
		if len(rec.Instance) == 0 {
			return fmt.Errorf("outcomes: snapshot record %s has no instance", rec.Expr)
		}
		for _, d := range rec.Instance {
			if d <= 0 {
				return fmt.Errorf("outcomes: snapshot record %s%v has non-positive dimension", rec.Expr, rec.Instance)
			}
		}
		for _, o := range rec.Outcomes {
			switch {
			case o.Algorithm < 1:
				return fmt.Errorf("outcomes: snapshot record %s%v has algorithm index %d < 1", rec.Expr, rec.Instance, o.Algorithm)
			case o.Count < 1:
				return fmt.Errorf("outcomes: snapshot record %s%v algorithm %d has count %d < 1", rec.Expr, rec.Instance, o.Algorithm, o.Count)
			case !(o.Weight > 0) || math.IsInf(o.Weight, 0):
				return fmt.Errorf("outcomes: snapshot record %s%v algorithm %d has weight %v, want a positive finite value", rec.Expr, rec.Instance, o.Algorithm, o.Weight)
			case !(o.Mean > 0) || math.IsInf(o.Mean, 0):
				return fmt.Errorf("outcomes: snapshot record %s%v algorithm %d has mean %v, want a positive finite duration", rec.Expr, rec.Instance, o.Algorithm, o.Mean)
			case o.M2 < 0 || math.IsInf(o.M2, 0) || math.IsNaN(o.M2):
				return fmt.Errorf("outcomes: snapshot record %s%v algorithm %d has m2 %v, want a non-negative finite value", rec.Expr, rec.Instance, o.Algorithm, o.M2)
			}
		}
	}
	return nil
}

// Restore merges the snapshot's records into the store. resolve maps a
// record's expression name to its canonical store key and decides
// semantic validity (nil keeps everything under the recorded name);
// invalid records are skipped, not fatal — a snapshot may reference
// expressions or algorithms another build registered, and one stale
// record must not discard the rest of the memory. Resolution runs
// before the lock; the whole snapshot is then installed in one critical
// section, as Merge does. The decay clock resumes from the snapshot's
// creation time, so downtime decays restored evidence. Returns
// (restored, skipped) outcome counts.
func (st *Store) Restore(s *Snapshot, resolve func(exprName string, inst expr.Instance, algorithm int) (canonical string, ok bool)) (restored, skipped int) {
	installs, skipped := resolveInstalls(s, false, resolve)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.installAll(s, installs, "", 1)
	return len(installs), skipped
}

// Merge folds a peer's snapshot into the store under the given source
// tag. Semantics are replace-by-source: everything this source
// contributed before is dropped, then the snapshot's *local* outcomes
// (records the peer observed itself, not evidence it merged from third
// parties — those are skipped, which keeps gossip loops from amplifying
// evidence) are installed with their weights scaled by scale, so remote
// evidence can count for less than firsthand measurements. Replaying
// the same snapshot is therefore idempotent — state-based merging, not
// operation replay — and a newer snapshot from the same peer supersedes
// the older one instead of double-counting the history both contain.
//
// The installed outcomes' decay clock starts at the snapshot's creation
// time: evidence that was already old when it arrived is already partly
// decayed here. resolve is as in Restore. Returns (merged, skipped).
func (st *Store) Merge(source string, s *Snapshot, scale float64, resolve func(exprName string, inst expr.Instance, algorithm int) (canonical string, ok bool)) (merged, skipped int) {
	if source == "" {
		// An empty source would collide with local evidence; the caller
		// validates, this is the backstop.
		return 0, countOutcomes(s)
	}
	if scale <= 0 || scale > 1 || math.IsNaN(scale) {
		scale = 1
	}
	// Resolution runs before the lock; the drop-and-install below is one
	// critical section, so a reader never sees the source half-replaced.
	installs, skipped := resolveInstalls(s, true, resolve)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dropSource(source)
	st.installAll(s, installs, source, scale)
	return len(installs), skipped
}

// pending is one snapshot outcome that resolved, waiting to be
// installed: the record it belongs to (an index into Snapshot.Records)
// and the store key it resolved to.
type pending struct {
	name string
	rec  int
	o    *SnapshotOutcome
}

// resolveInstalls runs resolve over the snapshot's outcomes, in order,
// and returns those it accepts. foreignSkipped drops outcomes a peer
// merged from third parties (a non-empty source), as Merge requires.
func resolveInstalls(s *Snapshot, foreignSkipped bool, resolve func(exprName string, inst expr.Instance, algorithm int) (canonical string, ok bool)) (installs []pending, skipped int) {
	installs = make([]pending, 0, countOutcomes(s))
	for i := range s.Records {
		rec := &s.Records[i]
		for j := range rec.Outcomes {
			o := &rec.Outcomes[j]
			if foreignSkipped && o.Source != "" {
				skipped++
				continue
			}
			name := rec.Expr
			if resolve != nil {
				canonical, ok := resolve(rec.Expr, rec.Instance, o.Algorithm)
				if !ok {
					skipped++
					continue
				}
				if canonical != "" {
					name = canonical
				}
			}
			installs = append(installs, pending{name: name, rec: i, o: o})
		}
	}
	return installs, skipped
}

// installAll writes resolved outcomes into the store, each record's
// run of outcomes under one touch, with weights scaled by scale. A
// non-empty source tags every stream (a merge); the empty source keeps
// each outcome's own (a restore). The decay clock starts at the
// snapshot's creation time, or now if that lies in the future, so a
// peer whose clock runs ahead cannot hold its evidence at full weight.
// Callers hold the write lock.
func (st *Store) installAll(s *Snapshot, installs []pending, source string, scale float64) {
	last := s.CreatedUnix
	if now := st.now(); !(last <= now) {
		last = now
	}
	var rec *record
	for i, in := range installs {
		if i == 0 || in.rec != installs[i-1].rec || in.name != installs[i-1].name {
			rec = st.touch(in.name, s.Records[in.rec].Instance)
		}
		key := outcomeKey{alg: in.o.Algorithm, source: in.o.Source}
		if source != "" {
			key.source = source
		}
		ao := algOutcome{
			count:  in.o.Count,
			weight: in.o.Weight * scale,
			mean:   in.o.Mean,
			// m2 scales with the weight so the stream's variance survives
			// the scaling unchanged. Version-1 snapshots carry no m2
			// (zero), which downstream reads as "no tracked spread; the
			// prior's stands in".
			m2:   in.o.M2 * scale,
			last: last,
		}
		if cur := rec.find(key); cur != nil {
			cur.algOutcome = ao
		} else {
			rec.algs = append(rec.algs, stream{outcomeKey: key, algOutcome: ao})
		}
	}
}

// dropSource removes every outcome tagged with source, and any record
// (and expression) left empty by the removal. Callers hold the write
// lock.
func (st *Store) dropSource(source string) {
	for rec := st.lru.next; rec != &st.lru; {
		next := rec.next
		rec.algs = slices.DeleteFunc(rec.algs, func(s stream) bool { return s.source == source })
		if len(rec.algs) == 0 {
			st.remove(rec)
		}
		rec = next
	}
}

// countOutcomes totals a snapshot's outcome entries.
func countOutcomes(s *Snapshot) int {
	n := 0
	for _, rec := range s.Records {
		n += len(rec.Outcomes)
	}
	return n
}

// Encode writes the snapshot as JSON.
func (s *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// DecodeSnapshot reads and structurally validates a snapshot. It reads
// r to its end, so the whole snapshot is parsed in one pass (see
// reader.go).
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	return decodeSnapshot(data, err)
}

// WriteFile saves the snapshot to path atomically: encoded to a temp
// file in the same directory, then renamed over the target, so a
// crashed writer (or the "outcomes.write" failpoint) never leaves a
// truncated snapshot where the last good one was.
func (s *Snapshot) WriteFile(path string) error {
	if err := faultinject.Fire("outcomes.write"); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".outcomes-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp makes the file 0600; the snapshot is an operational
	// artifact (inspected, copied between hosts), so widen to the
	// conventional 0644 before the rename publishes it.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads and structurally validates a snapshot file, read in
// one call into a buffer sized from the file's length.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var buf bytes.Buffer
	if fi, err := f.Stat(); err == nil {
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(f)
	s, err := decodeSnapshot(buf.Bytes(), err)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
