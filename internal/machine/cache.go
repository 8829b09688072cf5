package machine

import "lamb/internal/kernels"

// CacheState tracks which logical operands are resident in the simulated
// last-level cache. The executor carries one CacheState per algorithm
// repetition: it is flushed at the start (matching the paper's cache
// flush before each repetition) and updated after every call, so later
// calls in a sequence observe the inter-kernel cache effects that
// Experiment 3 isolates.
//
// The model is a simple LRU over whole operands: after a call, its output
// and inputs are the most recently used; older content is evicted once
// the configured capacity is exceeded.
type CacheState struct {
	capacity float64
	// entries is most-recent-first; hot holds resident byte counts.
	entries []string
	hot     map[string]float64
}

// NewCacheState returns an empty cache state with the machine's LLC
// capacity.
func (m *Machine) NewCacheState() *CacheState {
	return &CacheState{capacity: m.cfg.LLCBytes, hot: make(map[string]float64)}
}

// Flush empties the cache (the paper flushes before each repetition).
func (s *CacheState) Flush() {
	s.entries = s.entries[:0]
	clear(s.hot)
}

// HotFraction returns the fraction of the call's input bytes currently
// resident in the cache, in [0, 1].
func (s *CacheState) HotFraction(c kernels.Call) float64 {
	in, _ := c.Touches()
	var need, have float64
	for i := range min(len(c.In), len(in)) {
		need += in[i]
		if res, ok := s.hot[c.In[i]]; ok {
			have += min(res, in[i])
		}
	}
	if need == 0 {
		return 0
	}
	return have / need
}

// Record updates the cache state after a call executes: the output is
// most recently used, then the inputs, then prior content; entries beyond
// capacity are evicted.
func (s *CacheState) Record(c kernels.Call) {
	in, out := c.Touches()

	// Rebuild the LRU list: touched operands first, then survivors.
	newEntries := make([]string, 0, len(s.entries)+len(c.In)+1)
	newHot := make(map[string]float64, len(c.In)+1+len(s.entries))
	var used float64
	add := func(id string, bytes float64) {
		if _, seen := newHot[id]; seen {
			return
		}
		if used >= s.capacity {
			return
		}
		res := min(bytes, s.capacity-used)
		newHot[id] = res
		newEntries = append(newEntries, id)
		used += res
	}
	add(c.Out, out)
	for i := range min(len(c.In), len(in)) {
		add(c.In[i], in[i])
	}
	for _, id := range s.entries {
		add(id, s.hot[id])
	}
	s.entries = newEntries
	s.hot = newHot
}
