package xrand

// fillSignedAVX fills dst[0:n] as FillSigned does from state s, four
// SplitMix64 lanes at a time; n must be a positive multiple of 4.
// Implemented in fill_amd64.s.
//
//go:noescape
func fillSignedAVX(dst *float64, n int, s uint64)

// fillSignedVec fills the longest prefix of dst whose length is a
// multiple of 4 with the four-lane kernel, from state s, and returns
// its length: 0 when AVX2 with FMA is off.
func fillSignedVec(dst []float64, s uint64) int {
	n := len(dst) &^ 3
	if !haveAVX2FMA || n == 0 {
		return 0
	}
	fillSignedAVX(&dst[0], n, s)
	return n
}
