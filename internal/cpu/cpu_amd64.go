package cpu

// hasAVX2FMA reads the CPUID feature bits and XCR0. Implemented in
// cpu_amd64.s.
func hasAVX2FMA() bool
