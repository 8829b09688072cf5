// AVX2/FMA micro-kernel for the packed GEMM: an 8×4 register-blocked
// tile held in eight YMM accumulators (two four-row banks per column),
// with the k loop unrolled by two. Feature detection is done once at
// startup by lamb/internal/cpu.

#include "textflag.h"

// func gemm8x4AVX(ap, bp *float64, k int, out *[32]float64)
//
// out[r+8*s] = sum_p ap[p*8+r] * bp[p*4+s], a column-major 8x4 tile.
// Column s accumulates in Y(2s) (rows 0-3) and Y(2s+1) (rows 4-7).
TEXT ·gemm8x4AVX(SB), NOSPLIT, $0-32
	MOVQ   ap+0(FP), SI
	MOVQ   bp+8(FP), DI
	MOVQ   k+16(FP), CX
	MOVQ   out+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     done
	MOVQ   CX, R9
	SHRQ   $1, R9
	JZ     tail

loop2:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y10
	VBROADCASTSD 8(DI), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 16(DI), Y12
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 24(DI), Y13
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	VMOVUPD      64(SI), Y14
	VMOVUPD      96(SI), Y15
	VBROADCASTSD 32(DI), Y10
	VBROADCASTSD 40(DI), Y11
	VFMADD231PD  Y14, Y10, Y0
	VFMADD231PD  Y15, Y10, Y1
	VBROADCASTSD 48(DI), Y12
	VFMADD231PD  Y14, Y11, Y2
	VFMADD231PD  Y15, Y11, Y3
	VBROADCASTSD 56(DI), Y13
	VFMADD231PD  Y14, Y12, Y4
	VFMADD231PD  Y15, Y12, Y5
	VFMADD231PD  Y14, Y13, Y6
	VFMADD231PD  Y15, Y13, Y7
	ADDQ         $128, SI
	ADDQ         $64, DI
	DECQ         R9
	JNZ          loop2
	ANDQ         $1, CX
	JZ           done

tail:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y10
	VBROADCASTSD 8(DI), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 16(DI), Y12
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 24(DI), Y13
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          tail

done:
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
