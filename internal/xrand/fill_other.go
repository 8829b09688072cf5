//go:build !amd64

package xrand

// fillSignedVec fills nothing off amd64: FillSigned's scalar loop does
// all of it.
func fillSignedVec(dst []float64, s uint64) int { return 0 }
