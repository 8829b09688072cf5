// Package cpu detects, once per process, the vector instruction sets the
// hand-written kernels of lamb/internal/blas, lamb/internal/mat and
// lamb/internal/xrand need. It is the one CPUID routine in the
// repository; each package reads HasAVX2FMA into its own dispatch flag,
// which its tests can flip to exercise the portable paths.
package cpu

// HasAVX2FMA reports whether the CPU and the OS support AVX2 with FMA:
// the CPUID feature bits plus the XCR0 bits that enable YMM state.
var HasAVX2FMA = hasAVX2FMA()
