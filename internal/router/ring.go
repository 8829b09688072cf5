// Package router is the distributed tier's front door: an HTTP proxy
// that consistent-hashes selection queries by (expression, log-shape
// region) across a fleet of `lamb serve` backends, with the resilience
// ladder a production service needs — active health probes, per-backend
// circuit breakers, capped-backoff retries on a different shard,
// optional tail-latency hedging for timed strategies, and graceful
// degradation to a local in-process min-flops engine when every
// backend is down. It also runs the fleet's anti-entropy gossip,
// shuttling outcome snapshots between backends so feedback learned on
// one shard strengthens adaptive selection everywhere (the data-sparsity
// concern of the follow-up test paper: shards that never share stay
// permanently starved for the regions they don't own).
package router

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"lamb/internal/ir"
)

// ring is a consistent-hash ring with virtual nodes. Keys are shard
// hashes (shardHash); lookups return every backend, deduplicated, in
// ring order from the key's position — the retry ladder walks that
// order, so an instance's traffic lands on the same backend while it is
// healthy and fails over deterministically when it is not.
type ring struct {
	backends []string
	points   []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a hash position owned by a backend.
type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// ringReplicas is the virtual-node count per backend. More virtual
// nodes smooth the load split at the cost of a longer sorted array;
// with the small fleets a router fronts, 64 per backend keeps the
// imbalance within a few percent.
const ringReplicas = 64

// newRing places ringReplicas virtual nodes per backend.
func newRing(backends []string) *ring {
	r := &ring{backends: backends, points: make([]ringPoint, 0, len(backends)*ringReplicas)}
	for i, b := range backends {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64([]byte(b + "#" + strconv.Itoa(v))), backend: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// candidates returns all backends in ring order starting at the shard
// hash h: the first entry is the shard owner, the rest the failover
// order. Backends are distinct (New rejects duplicates), so a backend
// already in the result is the only repeat to skip. The returned slice
// is freshly allocated.
func (r *ring) candidates(h uint64) []string {
	out := make([]string, 0, len(r.backends))
	if len(r.points) == 0 {
		return out
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < len(r.backends); i++ {
		if b := r.backends[r.points[(start+i)%len(r.points)].backend]; !slices.Contains(out, b) {
			out = append(out, b)
		}
	}
	return out
}

// shardHash maps a query to its shard: the hash of the expression
// (case-folded, as the engine resolves it) followed by "|" and each
// dimension's octave (ir.Octave), so instances whose shapes differ by
// less than a factor of two land on the same shard. The octave is
// deliberately wider than the adaptive strategy's 0.25 log-unit
// neighbourhood radius: instances close enough to share evidence are
// close enough to share a shard, which is what makes shard-local
// feedback memory effective. The bytes are written into a stack
// buffer, so a lowercase name (which strings.ToLower returns as is)
// and a short instance allocate nothing.
func shardHash(expr string, inst []int) uint64 {
	var buf [128]byte
	b := append(buf[:0], strings.ToLower(expr)...)
	for _, d := range inst {
		b = strconv.AppendInt(append(b, '|'), int64(ir.Octave(d)), 10)
	}
	return hash64(b)
}

// hash64 is FNV-1a finished with a splitmix64-style mixer. Raw FNV-1a
// clusters on the short structured strings the ring hashes (shard keys
// differing in a digit or two, vnode labels sharing a long URL prefix):
// measured over random backend ports, all eleven octave shard keys of
// one expression land on the same backend of a pair ~8% of the time.
// The finalizer restores avalanche and brings that to the ~0.1% an
// independent uniform hash would give.
func hash64(s []byte) uint64 {
	x := uint64(14695981039346656037) // FNV-1a offset basis
	for _, c := range s {
		x ^= uint64(c)
		x *= 1099511628211 // FNV-1a prime
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
