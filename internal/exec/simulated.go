package exec

import (
	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/machine"
)

// Simulated is the Executor backed by the deterministic machine model.
// It reproduces the paper's protocol: the cache is flushed before each
// repetition (the cache state starts empty) and evolves across the calls
// of the algorithm, so later calls see warm inputs.
type Simulated struct {
	m    *machine.Machine
	name string // "simulated/" + the machine's name, stamped on every record
}

// NewSimulated returns a simulated executor on the given machine.
func NewSimulated(m *machine.Machine) *Simulated {
	return &Simulated{m: m, name: "simulated/" + m.Name()}
}

// NewDefaultSimulated returns a simulated executor on the calibrated
// default machine.
func NewDefaultSimulated() *Simulated { return NewSimulated(machine.NewDefault()) }

// Machine returns the underlying machine model.
func (s *Simulated) Machine() *machine.Machine { return s.m }

// TimeAlgorithm implements Executor.
func (s *Simulated) TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64 {
	cs := s.m.NewCacheState()
	times := make([]float64, len(alg.Calls))
	for i, call := range alg.Calls {
		hot := cs.HotFraction(call)
		times[i] = s.m.Time(call, hot, rep)
		cs.Record(call)
	}
	return times
}

// TimeCallCold implements Executor: an isolated benchmark with a flushed
// cache, an independent noise realisation, and the machine's systematic
// benchmark bias (a separate benchmarking campaign never reproduces
// in-sequence execution exactly).
func (s *Simulated) TimeCallCold(call kernels.Call, rep uint64) float64 {
	return s.m.TimeBench(call, rep|benchSalt)
}

// Peak implements Executor.
func (s *Simulated) Peak() float64 { return s.m.Peak() }

// Name implements Executor.
func (s *Simulated) Name() string { return s.name }
