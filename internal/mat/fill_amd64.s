// The Gram-product tile of FillSPD. Feature detection is done once at
// startup by lamb/internal/cpu; fill_amd64.go falls back to the portable
// tile.

#include "textflag.h"

// GRAMCOL accumulates column s of the tile: ACC0 (rows 0-3) and ACC1
// (rows 4-7) each add the rounded products of G's rows with the
// broadcast g[c+s, p] at off(R9).
#define GRAMCOL(off, ACC0, ACC1) \
	VBROADCASTSD off(R9), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, ACC0, ACC0; \
	VADDPD       Y12, ACC1, ACC1

// func gram8x4AVX(gp *float64, n, r, c int, tile *[32]float64)
//
// tile[q+8*s] = sum over p of gp[r+q + p*n] * gp[c+s + p*n], p ascending,
// each product rounded (VMULPD) before its add (VADDPD): the order and
// rounding of the element-at-a-time dot product, so the bits match it.
// Eight independent accumulators (column s in Y(2s), Y(2s+1)) keep the
// adds' latency hidden.
TEXT ·gram8x4AVX(SB), NOSPLIT, $0-40
	MOVQ   gp+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVQ   r+16(FP), AX
	MOVQ   c+24(FP), BX
	MOVQ   tile+32(FP), DX
	LEAQ   (SI)(AX*8), R8
	LEAQ   (SI)(BX*8), R9
	MOVQ   CX, R10
	SHLQ   $3, R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD (R8), Y8
	VMOVUPD 32(R8), Y9
	GRAMCOL(0, Y0, Y1)
	GRAMCOL(8, Y2, Y3)
	GRAMCOL(16, Y4, Y5)
	GRAMCOL(24, Y6, Y7)
	ADDQ    R10, R8
	ADDQ    R10, R9
	DECQ    CX
	JNZ     loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET
