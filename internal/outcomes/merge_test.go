package outcomes

import (
	"reflect"
	"testing"
	"time"

	"lamb/internal/expr"
)

// mergeFixture builds a peer store with some local evidence and returns
// its local snapshot, taken at the frozen clock.
func mergeFixture(t *testing.T) *Snapshot {
	t.Helper()
	peer, _ := frozenStore(16, 0)
	inst := expr.Instance{80, 514, 768}
	peer.Add("AATB", inst, 1, 0.25)
	peer.Add("AATB", inst, 1, 0.75)
	peer.Add("AATB", inst, 2, 0.875)
	return peer.SnapshotLocal("peer-profile")
}

func TestMergeInstallsPeerEvidence(t *testing.T) {
	snap := mergeFixture(t)
	st, _ := frozenStore(16, 0)
	inst := expr.Instance{80, 514, 768}
	st.Add("AATB", inst, 1, 1.0)

	merged, skipped := st.Merge("http://peer-a", snap, 0.5, nil)
	if merged != 2 || skipped != 0 {
		t.Fatalf("merged %d skipped %d", merged, skipped)
	}
	obs := st.Near("AATB", inst, 0.01)
	// Local alg-1 evidence plus the peer's alg-1 and alg-2 streams.
	if len(obs) != 3 {
		t.Fatalf("observations %+v", obs)
	}
	var sawLocal, sawPeer1, sawPeer2 bool
	for _, o := range obs {
		switch {
		case o.Algorithm == 1 && o.Count == 1:
			sawLocal = true
			if o.Weight != 1 || o.Seconds != 1.0 {
				t.Fatalf("local observation %+v", o)
			}
		case o.Algorithm == 1 && o.Count == 2:
			sawPeer1 = true
			// Peer weight 2 scaled by 0.5; mean untouched by the scale.
			if o.Weight != 1 || o.Seconds != 0.5 {
				t.Fatalf("peer alg-1 observation %+v", o)
			}
		case o.Algorithm == 2:
			sawPeer2 = true
			if o.Weight != 0.5 || o.Seconds != 0.875 {
				t.Fatalf("peer alg-2 observation %+v", o)
			}
		}
	}
	if !sawLocal || !sawPeer1 || !sawPeer2 {
		t.Fatalf("missing streams: local=%v peer1=%v peer2=%v in %+v", sawLocal, sawPeer1, sawPeer2, obs)
	}
}

// TestMergeIdempotent is the cross-process contract: replaying the same
// snapshot (a retried POST, an overlapping gossip round) leaves the
// store byte-identical, and a newer snapshot from the same source
// replaces — never double-counts — the older one.
func TestMergeIdempotent(t *testing.T) {
	snap := mergeFixture(t)
	st, _ := frozenStore(16, 0)
	st.Add("AATB", expr.Instance{80, 514, 768}, 3, 2.0)

	st.Merge("http://peer-a", snap, 0.5, nil)
	once := st.Snapshot("p")
	st.Merge("http://peer-a", snap, 0.5, nil)
	twice := st.Snapshot("p")
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("double merge changed the store:\n%+v\n%+v", once, twice)
	}

	// A later peer snapshot with more evidence supersedes, the weights
	// reflecting only the new snapshot (replace, not accumulate).
	peer, _ := frozenStore(16, 0)
	inst := expr.Instance{80, 514, 768}
	for i := 0; i < 5; i++ {
		peer.Add("AATB", inst, 1, 0.2)
	}
	st.Merge("http://peer-a", peer.SnapshotLocal("p"), 1, nil)
	for _, o := range st.Near("AATB", inst, 0.01) {
		if o.Algorithm == 1 && o.Weight != 5 {
			t.Fatalf("superseding merge did not replace: %+v", o)
		}
		if o.Algorithm == 2 {
			t.Fatalf("stale peer outcome survived the newer snapshot: %+v", o)
		}
	}
}

// TestMergeSourcesStayIsolated: two peers' evidence lives in separate
// streams; re-merging one peer leaves the other (and local feedback)
// untouched.
func TestMergeSourcesStayIsolated(t *testing.T) {
	snap := mergeFixture(t)
	st, _ := frozenStore(16, 0)
	inst := expr.Instance{80, 514, 768}
	st.Merge("http://peer-a", snap, 1, nil)
	st.Merge("http://peer-b", snap, 1, nil)
	if got := len(st.Near("AATB", inst, 0.01)); got != 4 {
		t.Fatalf("want 4 streams (2 algs × 2 peers), got %d", got)
	}
	// Empty the view of peer-a by merging an empty snapshot from it.
	empty, _ := frozenStore(16, 0)
	st.Merge("http://peer-a", empty.SnapshotLocal(""), 1, nil)
	if got := len(st.Near("AATB", inst, 0.01)); got != 2 {
		t.Fatalf("want peer-b's 2 streams after emptying peer-a, got %d", got)
	}
}

// TestMergeSkipsForeignAndUnresolved: outcomes that carry a source tag
// (third-party evidence inside a full snapshot) and records the resolver
// rejects are skipped, not installed.
func TestMergeSkipsForeignAndUnresolved(t *testing.T) {
	st, _ := frozenStore(16, 0)
	snap := mergeFixture(t)
	snap.Records[0].Outcomes[0].Source = "http://third-party"
	merged, skipped := st.Merge("http://peer-a", snap, 1, nil)
	if merged != 1 || skipped != 1 {
		t.Fatalf("merged %d skipped %d", merged, skipped)
	}

	st2, _ := frozenStore(16, 0)
	merged, skipped = st2.Merge("http://peer-a", mergeFixture(t), 1,
		func(string, expr.Instance, int) (string, bool) { return "", false })
	if merged != 0 || skipped != 2 || st2.Size() != 0 {
		t.Fatalf("merged %d skipped %d size %d", merged, skipped, st2.Size())
	}

	// The empty source is reserved for local evidence; the backstop
	// refuses rather than colliding.
	if merged, _ := st.Merge("", mergeFixture(t), 1, nil); merged != 0 {
		t.Fatalf("empty source merged %d outcomes", merged)
	}
}

// TestMergeDecaysFromSnapshotCreation: merged weights age from the
// snapshot's creation moment, so stale gossip arrives pre-decayed.
func TestMergeDecaysFromSnapshotCreation(t *testing.T) {
	peer, _ := frozenStore(16, 0)
	inst := expr.Instance{80, 514, 768}
	peer.Add("AATB", inst, 1, 0.2)
	snap := peer.SnapshotLocal("") // CreatedUnix = the frozen clock

	// A store with a one-hour half-life, read one half-life after the
	// snapshot was taken: the merged weight must serve halved.
	st := NewStore(16, time.Hour)
	later := snap.CreatedUnix + time.Hour.Seconds()
	st.SetClock(func() float64 { return later })
	st.Merge("http://peer-a", snap, 1, nil)
	obs := st.Near("AATB", inst, 0.01)
	if len(obs) != 1 || obs[0].Weight != 0.5 {
		t.Fatalf("one half-life after snapshot creation: %+v", obs)
	}
}

// TestFutureSnapshotDecaysFromNow: a snapshot stamped in the future —
// a peer whose clock runs ahead, or a hostile created_unix — starts its
// decay clock at the store's now, not at the stamp, so its evidence
// ages from the moment it arrives instead of holding full weight until
// the wall clock catches up. Merge and Restore alike.
func TestFutureSnapshotDecaysFromNow(t *testing.T) {
	peer, _ := frozenStore(16, 0)
	inst := expr.Instance{80, 514, 768}
	peer.Add("AATB", inst, 1, 0.2)
	snap := peer.SnapshotLocal("")
	snap.CreatedUnix = 1e12 // tens of thousands of years ahead

	for name, install := range map[string]func(*Store){
		"merge":   func(st *Store) { st.Merge("http://peer-a", snap, 1, nil) },
		"restore": func(st *Store) { st.Restore(snap, nil) },
	} {
		st := NewStore(16, time.Hour)
		now := 5000.0
		st.SetClock(func() float64 { return now })
		install(st)
		now += time.Hour.Seconds()
		obs := st.Near("AATB", inst, 0.01)
		if len(obs) != 1 || obs[0].Weight != 0.5 {
			t.Fatalf("%s: one half-life after a future-stamped install: %+v", name, obs)
		}
	}
}

// TestSnapshotLocalExcludesMergedEvidence pins the anti-echo property:
// the gossip export carries only firsthand evidence.
func TestSnapshotLocalExcludesMergedEvidence(t *testing.T) {
	st, _ := frozenStore(16, 0)
	inst := expr.Instance{80, 514, 768}
	st.Add("AATB", inst, 3, 2.0)
	st.Merge("http://peer-a", mergeFixture(t), 1, nil)
	st.Merge("http://peer-a/other", mergeFixture(t), 1, nil)

	local := st.SnapshotLocal("p")
	if len(local.Records) != 1 || len(local.Records[0].Outcomes) != 1 {
		t.Fatalf("local export %+v", local.Records)
	}
	if o := local.Records[0].Outcomes[0]; o.Algorithm != 3 || o.Source != "" {
		t.Fatalf("local export outcome %+v", o)
	}
	// The full snapshot keeps everything, tagged.
	full := st.Snapshot("p")
	total, sourced := 0, 0
	for _, rec := range full.Records {
		for _, o := range rec.Outcomes {
			total++
			if o.Source != "" {
				sourced++
			}
		}
	}
	if total != 5 || sourced != 4 {
		t.Fatalf("full snapshot has %d outcomes, %d sourced", total, sourced)
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("full snapshot invalid: %v", err)
	}
	// And a restore of the full snapshot brings the merged streams back.
	st2, _ := frozenStore(16, 0)
	restored, skipped := st2.Restore(full, nil)
	if restored != 5 || skipped != 0 {
		t.Fatalf("restore: %d/%d", restored, skipped)
	}
	if got := len(st2.Near("AATB", inst, 0.01)); got != 5 {
		t.Fatalf("restored streams %d", got)
	}
}
