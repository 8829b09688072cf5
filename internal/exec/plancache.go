package exec

// This file implements the execution layer of the engine's cache
// hierarchy: a bounded LRU of compiled plans. It replaces the measured
// executor's former single-entry plan slots, so repeated queries across
// many (algorithm, instance) pairs — the serving workload — reuse
// compiled plans instead of recompiling per switch. Whole-algorithm
// plans are keyed by the bound *expr.Algorithm (the binding layer
// memoises bound sets, so the pointer identifies the (algorithm,
// instance) pair); single-call plans are keyed by the call's MemoKey.
// Both lookups are allocation-free, preserving the zero-alloc timing
// repetition invariant.

import (
	"sync"

	"lamb/internal/cache"
	"lamb/internal/expr"
	"lamb/internal/kernels"
)

// Plan-cache defaults. Plans own their operand arenas — allocated for
// them alone, never lent by a Slab — so entry counts bound
// memory: paper-box instances reach 1200² operands (~10 MB per
// plan), which is why the defaults are small. Engines serving many
// concurrent expressions pass larger caps via NewPlanCache.
const (
	// DefaultAlgPlanEntries bounds the whole-algorithm plan cache of a
	// standalone Measured executor.
	DefaultAlgPlanEntries = 8
	// DefaultCallPlanEntries bounds the single-call plan cache (the
	// profile-measurement and Experiment 3 path).
	DefaultCallPlanEntries = 8
	// DefaultBatchPlanEntries bounds the fused batch-plan cache. Batch
	// plans exist only in the small-instance regime (FuseWidth caps the
	// slab size), so entries are cheap relative to whole-algorithm plans.
	DefaultBatchPlanEntries = 8
)

// batchKey identifies a fused batch plan: the bound algorithm plus the
// fuse width it was compiled for.
type batchKey struct {
	alg   *expr.Algorithm
	count int
}

// PlanCache memoises compiled execution plans behind a mutex. It is
// safe for concurrent use, though the plans it returns are not — the
// owner serialises execution (Measured always has; the engine holds its
// execution lock across timing runs).
type PlanCache struct {
	mu      sync.Mutex
	algs    *cache.LRU[*expr.Algorithm, *Plan]
	calls   *cache.LRU[kernels.Key, *Plan]
	batches *cache.LRU[batchKey, *BatchPlan]
}

// NewPlanCache returns a plan cache bounded to algEntries
// whole-algorithm plans and callEntries single-call plans (the fused
// batch-plan cache is bounded to DefaultBatchPlanEntries).
func NewPlanCache(algEntries, callEntries int) *PlanCache {
	return &PlanCache{
		algs:    cache.NewLRU[*expr.Algorithm, *Plan](algEntries),
		calls:   cache.NewLRU[kernels.Key, *Plan](callEntries),
		batches: cache.NewLRU[batchKey, *BatchPlan](DefaultBatchPlanEntries),
	}
}

// Plan returns the compiled plan for alg, compiling on first sight. A
// hit performs no heap allocations.
func (c *PlanCache) Plan(alg *expr.Algorithm) (*Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.algs.Get(alg); ok {
		return p, nil
	}
	p, err := CompilePlan(alg)
	if err != nil {
		return nil, err
	}
	c.algs.Put(alg, p)
	return p, nil
}

// CallPlan returns the compiled single-call plan for call, compiling on
// first sight. Calls with equal MemoKeys share a plan (operand IDs do
// not affect performance). A hit performs no heap allocations.
func (c *PlanCache) CallPlan(call kernels.Call) (*Plan, error) {
	key := call.MemoKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.calls.Get(key); ok {
		return p, nil
	}
	p, err := CompileCallPlan(call)
	if err != nil {
		return nil, err
	}
	c.calls.Put(key, p)
	return p, nil
}

// BatchPlan returns the fused batch plan for (alg, count), compiling on
// first sight. A hit performs no heap allocations.
func (c *PlanCache) BatchPlan(alg *expr.Algorithm, count int) (*BatchPlan, error) {
	key := batchKey{alg: alg, count: count}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.batches.Get(key); ok {
		return p, nil
	}
	p, err := CompileBatchPlan(alg, count)
	if err != nil {
		return nil, err
	}
	c.batches.Put(key, p)
	return p, nil
}

// Stats returns the counters of the algorithm-plan and call-plan LRUs.
func (c *PlanCache) Stats() (algs, calls cache.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.algs.Stats(), c.calls.Stats()
}

// BatchStats returns the counters of the fused batch-plan LRU.
func (c *PlanCache) BatchStats() cache.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches.Stats()
}
