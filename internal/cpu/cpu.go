// Package cpu detects, once per process, the vector instruction sets the
// hand-written kernels of lamb/internal/blas and lamb/internal/mat need.
// It is the one CPUID routine in the repository; both packages read
// HasAVX2FMA into their own dispatch flag, which their tests can flip to
// exercise the portable paths.
package cpu

// HasAVX2FMA reports whether the CPU and the OS support AVX2 with FMA:
// the CPUID feature bits plus the XCR0 bits that enable YMM state.
var HasAVX2FMA = hasAVX2FMA()
