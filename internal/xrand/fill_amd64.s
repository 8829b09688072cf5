// The four-lane FillSigned. Feature detection is done once at startup by
// lamb/internal/cpu; fill_amd64.go falls back to the scalar loop.

#include "textflag.h"

// fillConsts, in 8-byte slots:
//   0-24: γ, 2γ, 3γ, 4γ, the offsets of the four lanes' first states
//     32: 4γ, the step of every lane
//     40: the first SplitMix64 multiplier, and 48: its high half
//     56: the second multiplier, and 64: its high half
//     72: the bits of 2^84, 80: the bits of 2^52
//     88: 2^84 + 2^52, 96: 2^-52, 104: -1
DATA fillConsts<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA fillConsts<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA fillConsts<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA fillConsts<>+24(SB)/8, $0x78dde6e5fd29f054
DATA fillConsts<>+32(SB)/8, $0x78dde6e5fd29f054
DATA fillConsts<>+40(SB)/8, $0xbf58476d1ce4e5b9
DATA fillConsts<>+48(SB)/8, $0xbf58476d
DATA fillConsts<>+56(SB)/8, $0x94d049bb133111eb
DATA fillConsts<>+64(SB)/8, $0x94d049bb
DATA fillConsts<>+72(SB)/8, $0x4530000000000000
DATA fillConsts<>+80(SB)/8, $0x4330000000000000
DATA fillConsts<>+88(SB)/8, $0x4530000000100000
DATA fillConsts<>+96(SB)/8, $0x3cb0000000000000
DATA fillConsts<>+104(SB)/8, $0xbff0000000000000
GLOBL fillConsts<>(SB), RODATA|NOPTR, $112

// MUL64(M, MH) sets Y12 to the low 64 bits of Y12·M in each lane, from
// three 32×32→64 products: lo·lo + ((lo·hi + hi·lo) << 32). MH holds
// M's high half. Clobbers Y13-Y15.
#define MUL64(M, MH) \
	VPMULUDQ M, Y12, Y13;  \
	VPMULUDQ MH, Y12, Y14; \
	VPSRLQ   $32, Y12, Y15; \
	VPMULUDQ M, Y15, Y15;  \
	VPADDQ   Y14, Y15, Y15; \
	VPSLLQ   $32, Y15, Y15; \
	VPADDQ   Y15, Y13, Y12

// func fillSignedAVX(dst *float64, n int, s uint64)
//
// dst[i] = 2*(float64(mix(s+(i+1)γ)>>11)/2^53) - 1 for i < n, n a
// positive multiple of 4: four SplitMix64 lanes at s+γ … s+4γ, each
// stepping by 4γ. The 53-bit value v is split into its high 21 and low
// 32 bits, OR-ed into the mantissas of 2^84 and 2^52, and recombined
// exactly: (2^84 + hi·2^32) − (2^84 + 2^52) + (2^52 + lo) = v. One FMA
// then computes v·2^-52 − 1; the product is exact, so the one rounding
// is the subtraction's, as in the scalar 2*(v/2^53) − 1. Every constant
// is loaded with a VEX-encoded instruction, so no SSE/AVX transition
// penalty is paid.
TEXT ·fillSignedAVX(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	SHRQ         $2, CX
	VPBROADCASTQ s+16(FP), Y0
	VPADDQ       fillConsts<>+0(SB), Y0, Y0
	VPBROADCASTQ fillConsts<>+32(SB), Y1
	VPBROADCASTQ fillConsts<>+40(SB), Y2
	VPBROADCASTQ fillConsts<>+48(SB), Y3
	VPBROADCASTQ fillConsts<>+56(SB), Y4
	VPBROADCASTQ fillConsts<>+64(SB), Y5
	VPCMPEQQ     Y6, Y6, Y6
	VPSRLQ       $32, Y6, Y6
	VPBROADCASTQ fillConsts<>+72(SB), Y7
	VPBROADCASTQ fillConsts<>+80(SB), Y8
	VPBROADCASTQ fillConsts<>+88(SB), Y9
	VPBROADCASTQ fillConsts<>+96(SB), Y10
	VPBROADCASTQ fillConsts<>+104(SB), Y11

loop:
	// z ^= z >> 30; z *= C1; z ^= z >> 27; z *= C2; z ^= z >> 31.
	VPSRLQ $30, Y0, Y12
	VPXOR  Y0, Y12, Y12
	MUL64(Y2, Y3)
	VPSRLQ $27, Y12, Y13
	VPXOR  Y13, Y12, Y12
	MUL64(Y4, Y5)
	VPSRLQ $31, Y12, Y13
	VPXOR  Y13, Y12, Y12

	// v = z >> 11, converted exactly, then v·2^-52 − 1.
	VPSRLQ      $11, Y12, Y12
	VPSRLQ      $32, Y12, Y13
	VPOR        Y7, Y13, Y13
	VPAND       Y6, Y12, Y12
	VPOR        Y8, Y12, Y12
	VSUBPD      Y9, Y13, Y13
	VADDPD      Y12, Y13, Y13
	VFMADD213PD Y11, Y10, Y13
	VMOVUPD     Y13, (DI)

	VPADDQ Y1, Y0, Y0
	ADDQ   $32, DI
	DECQ   CX
	JNZ    loop

	VZEROUPPER
	RET
