//go:build !amd64

package cpu

// hasAVX2FMA is false off amd64: the callers' portable kernels run.
func hasAVX2FMA() bool { return false }
