package engine

import (
	"os"
	"path/filepath"
	"testing"

	"lamb/internal/expr"
	"lamb/internal/outcomes"
	"lamb/internal/xrand"
)

// restoreFixture writes a snapshot shaped like a full default-sized
// store, the boot-time restore `lamb serve -outcomes` does: 4096
// records spread over every registered expression, three outcomes each
// at paper-box instances. It returns the file's path and outcome count.
func restoreFixture(tb testing.TB) (string, int) {
	tb.Helper()
	rng := xrand.New(0x5eed)
	names := expr.Names()
	snap := &outcomes.Snapshot{SchemaVersion: outcomes.SchemaVersion, CreatedUnix: 1.7e9, Records: []outcomes.SnapshotRecord{}}
	seen := map[string]bool{}
	total := 0
	for len(snap.Records) < DefaultFeedbackEntries {
		name := names[len(snap.Records)%len(names)]
		x, err := expr.Lookup(name)
		if err != nil {
			tb.Fatal(err)
		}
		inst := expr.PaperBox(x.Arity()).Sample(rng)
		if key := name + inst.String(); seen[key] {
			continue
		} else {
			seen[key] = true
		}
		rec := outcomes.SnapshotRecord{Expr: name, Instance: inst}
		n := x.NumAlgorithms()
		for _, alg := range []int{1, 1 + n/2, n} {
			mean := 1e-3 * (1 + rng.Float64())
			rec.Outcomes = append(rec.Outcomes, outcomes.SnapshotOutcome{
				Algorithm: alg, Count: 3, Weight: 3, Mean: mean, M2: 1e-8 * rng.Float64(),
			})
		}
		total += len(rec.Outcomes)
		snap.Records = append(snap.Records, rec)
	}
	path := filepath.Join(tb.TempDir(), "outcomes.json")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := snap.Encode(f); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path, total
}

// BenchmarkRestoreOutcomes times what serve does at boot with
// -outcomes: read and validate a full store's snapshot, then restore it
// into a fresh engine.
func BenchmarkRestoreOutcomes(b *testing.B) {
	path, total := restoreFixture(b)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		e := New(Config{})
		b.StartTimer()
		snap, err := outcomes.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if restored, skipped := e.RestoreOutcomes(snap); restored != total || skipped != 0 {
			b.Fatalf("restored %d skipped %d, want %d/0", restored, skipped, total)
		}
	}
}
