package engine

import (
	"lamb/internal/expr"
	"lamb/internal/outcomes"
)

// Durability of the feedback memory: the engine can snapshot its
// outcome store to the versioned JSON schema of lamb/internal/outcomes
// and restore a snapshot at boot, so the adaptive strategy's
// accumulated evidence survives restarts. `lamb serve -outcomes FILE`
// drives both ends.

// SnapshotOutcomes captures the current outcome store, decayed to now
// and tagged with the loaded profile store's provenance.
func (e *Engine) SnapshotOutcomes() *outcomes.Snapshot {
	profileID := ""
	if st := e.prof.Load(); st != nil {
		profileID = st.info.ID
	}
	return e.outcomes.Snapshot(profileID)
}

// SnapshotLocalOutcomes captures only this process's firsthand evidence
// — feedback recorded here, not outcomes merged from peers — which is
// what a backend exports for gossip: re-exporting merged evidence would
// let it echo around the fleet and amplify.
func (e *Engine) SnapshotLocalOutcomes() *outcomes.Snapshot {
	profileID := ""
	if st := e.prof.Load(); st != nil {
		profileID = st.info.ID
	}
	return e.outcomes.SnapshotLocal(profileID)
}

// resolveOutcome re-validates one snapshot record semantically against
// this process's registry — the expression must resolve through
// expr.Lookup, and checkEvidence must accept the instance and the
// algorithm index — and re-keys it under the expression's canonical
// name, so a snapshot written by another build, or edited by hand, lands
// what it can and skips the rest instead of failing or hoarding
// unreachable records. It binds
// no set, so a restore or a merge leaves the bind LRU as traffic left
// it.
func (e *Engine) resolveOutcome(name string, inst expr.Instance, alg int) (string, bool) {
	x, err := expr.Lookup(name)
	if err != nil || checkEvidence(x, inst, alg) != nil {
		return "", false
	}
	return x.Name(), true
}

// RestoreOutcomes merges a (structurally validated) snapshot into the
// outcome store, each record re-validated by resolveOutcome. Returns
// (restored, skipped) outcome counts; restored outcomes are reported in
// Stats.FeedbackRestored.
func (e *Engine) RestoreOutcomes(s *outcomes.Snapshot) (restored, skipped int) {
	restored, skipped = e.outcomes.Restore(s, e.resolveOutcome)
	e.restored.Add(uint64(restored))
	return restored, skipped
}

// MergeOutcomes installs a peer's snapshot as evidence attributed to
// source, replacing whatever that source contributed before (idempotent:
// re-delivering a snapshot is a no-op, a newer one supersedes). scale
// discounts the peer's weights; records are validated by resolveOutcome
// exactly like a restore. Counted in Stats.MergeRequests /
// Stats.MergedOutcomes.
func (e *Engine) MergeOutcomes(source string, s *outcomes.Snapshot, scale float64) (merged, skipped int) {
	merged, skipped = e.outcomes.Merge(source, s, scale, e.resolveOutcome)
	e.mergeReqs.Add(1)
	e.mergedOut.Add(uint64(merged))
	return merged, skipped
}
