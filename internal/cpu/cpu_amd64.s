#include "textflag.h"

// func hasAVX2FMA() bool
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	// CPUID.1:ECX — FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<12 | 1<<27 | 1<<28), R8
	CMPL R8, $(1<<12 | 1<<27 | 1<<28)
	JNE  no
	// XGETBV(0): XCR0 bits 1 and 2 — XMM and YMM state enabled by the OS.
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.7.0:EBX — AVX2 (bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
