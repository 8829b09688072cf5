// AVX2/FMA SIMD primitives shared by the packing routines and the
// triangular kernels: contiguous axpy and dot, the fused rank-4 column
// update of the unblocked Cholesky, and the full-panel packing kernels
// (contiguous copies and 4-stream register transposes). Feature
// detection is done once at startup by lamb/internal/cpu;
// the Go wrappers in simd_amd64.go fall back to portable bodies.

#include "textflag.h"

// func axpyAVX(y, x *float64, n int, alpha float64)
//
// y[i] += alpha * x[i] for i in [0, n). 8 doubles per iteration, scalar
// tail.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y15
	MOVQ         CX, R9
	SHRQ         $3, R9
	JZ           tail

loop8:
	VMOVUPD     (DI), Y0
	VMOVUPD     32(DI), Y1
	VFMADD231PD (SI), Y15, Y0
	VFMADD231PD 32(SI), Y15, Y1
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y1, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        R9
	JNZ         loop8

tail:
	ANDQ $7, CX
	JZ   done

tail1:
	VMOVSD       (DI), X0
	VMOVSD       (SI), X1
	VFMADD231SD X1, X15, X0
	VMOVSD       X0, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         tail1

done:
	VZEROUPPER
	RET

// func dotAVX(x, y *float64, n int) float64
//
// Returns sum x[i]*y[i] for i in [0, n). Two vector accumulators, then a
// horizontal reduction and a scalar tail folded into the low lane.
TEXT ·dotAVX(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   CX, R9
	SHRQ   $3, R9
	JZ     reduce

loop8:
	VMOVUPD     (SI), Y2
	VMOVUPD     32(SI), Y3
	VFMADD231PD (DI), Y2, Y0
	VFMADD231PD 32(DI), Y3, Y1
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        R9
	JNZ         loop8

reduce:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	ANDQ         $7, CX
	JZ           done

tail1:
	VMOVSD       (SI), X1
	VMOVSD       (DI), X2
	VFMADD231SD X2, X1, X0
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         tail1

done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func rank4AVX(y, x *float64, stride, n int, alphas *[4]float64)
//
// y[i] += alphas[0]*x[i] + alphas[1]*x[stride+i] + alphas[2]*x[2*stride+i]
//       + alphas[3]*x[3*stride+i] for i in [0, n): the fused rank-4
// trailing update of the unblocked Cholesky panel factorisation.
TEXT ·rank4AVX(SB), NOSPLIT, $0-40
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         stride+16(FP), R8
	MOVQ         n+24(FP), CX
	MOVQ         alphas+32(FP), AX
	SHLQ         $3, R8
	LEAQ         (SI)(R8*1), R9
	LEAQ         (R9)(R8*1), R10
	LEAQ         (R10)(R8*1), R11
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	MOVQ         CX, R12
	SHRQ         $2, R12
	JZ           tail

loop4:
	VMOVUPD     (DI), Y0
	VFMADD231PD (SI), Y12, Y0
	VFMADD231PD (R9), Y13, Y0
	VFMADD231PD (R10), Y14, Y0
	VFMADD231PD (R11), Y15, Y0
	VMOVUPD     Y0, (DI)
	ADDQ        $32, SI
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	ADDQ        $32, DI
	DECQ        R12
	JNZ         loop4

tail:
	ANDQ $3, CX
	JZ   done

tail1:
	VMOVSD       (DI), X0
	VMOVSD       (SI), X1
	VFMADD231SD X1, X12, X0
	VMOVSD       (R9), X1
	VFMADD231SD X1, X13, X0
	VMOVSD       (R10), X1
	VFMADD231SD X1, X14, X0
	VMOVSD       (R11), X1
	VFMADD231SD X1, X15, X0
	VMOVSD       X0, (DI)
	ADDQ        $8, SI
	ADDQ        $8, R9
	ADDQ        $8, R10
	ADDQ        $8, R11
	ADDQ        $8, DI
	DECQ        CX
	JNZ         tail1

done:
	VZEROUPPER
	RET

// func mergeTileSet8x4AVX(c *float64, stride int, tile *[32]float64, alpha float64)
//
// C[r, s] = alpha * tile[s*8+r] for a full 8x4 micro-tile, C column-major
// at the given stride. The betaEff==0 merge of the GEMM macro-kernel.
TEXT ·mergeTileSet8x4AVX(SB), NOSPLIT, $0-32
	MOVQ         c+0(FP), DI
	MOVQ         stride+8(FP), R8
	MOVQ         tile+16(FP), SI
	VBROADCASTSD alpha+24(FP), Y15
	SHLQ         $3, R8
	MOVQ         $4, CX

loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    R8, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func mergeTileAdd8x4AVX(c *float64, stride int, tile *[32]float64, alpha float64)
//
// C[r, s] += alpha * tile[s*8+r] for a full 8x4 micro-tile. The
// betaEff==1 merge of the GEMM macro-kernel.
TEXT ·mergeTileAdd8x4AVX(SB), NOSPLIT, $0-32
	MOVQ         c+0(FP), DI
	MOVQ         stride+8(FP), R8
	MOVQ         tile+16(FP), SI
	VBROADCASTSD alpha+24(FP), Y15
	SHLQ         $3, R8
	MOVQ         $4, CX

loop:
	VMOVUPD     (DI), Y0
	VMOVUPD     32(DI), Y1
	VMOVUPD     (SI), Y2
	VMOVUPD     32(SI), Y3
	VFMADD231PD Y15, Y2, Y0
	VFMADD231PD Y15, Y3, Y1
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y1, 32(DI)
	ADDQ        $64, SI
	ADDQ        R8, DI
	DECQ        CX
	JNZ         loop
	VZEROUPPER
	RET

// func packContig8AVX(dst, src *float64, k, stride int)
//
// k copies of 8 contiguous doubles: dst advances 8, src advances stride.
// The full-height packA micro-panel (no transpose).
TEXT ·packContig8AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R8
	SHLQ $3, R8

loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func packContig4AVX(dst, src *float64, k, stride int)
//
// k copies of 4 contiguous doubles: dst advances 4, src advances stride.
// The full-width packB micro-panel (transposed B).
TEXT ·packContig4AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R8
	SHLQ $3, R8

loop:
	VMOVUPD (SI), Y0
	VMOVUPD Y0, (DI)
	ADDQ    R8, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func packStreams4AVX(dst, src *float64, k, stride, dstStride int)
//
// Interleaves four strided source streams (stream s starts at
// src[s*stride]) into dst[p*dstStride+s] for p in [0, k): 4x4 blocks are
// transposed in registers (VUNPCK + VPERM2F128), the remainder runs
// scalar. dstStride is 4 for packB panels and 8 for the two half-panels
// of a transposed packA.
TEXT ·packStreams4AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R8
	MOVQ dstStride+32(FP), R13
	SHLQ $3, R8
	SHLQ $3, R13
	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R13)(R13*2), DX
	MOVQ CX, R12
	SHRQ $2, R12
	JZ   tail

loop4:
	VMOVUPD    (SI), Y0
	VMOVUPD    (R9), Y1
	VMOVUPD    (R10), Y2
	VMOVUPD    (R11), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VMOVUPD    Y8, (DI)
	VMOVUPD    Y9, (DI)(R13*1)
	VMOVUPD    Y10, (DI)(R13*2)
	VMOVUPD    Y11, (DI)(DX*1)
	ADDQ       $32, SI
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, R11
	LEAQ       (DI)(R13*4), DI
	DECQ       R12
	JNZ        loop4

tail:
	ANDQ $3, CX
	JZ   done

tail1:
	VMOVSD (SI), X0
	VMOVSD X0, (DI)
	VMOVSD (R9), X0
	VMOVSD X0, 8(DI)
	VMOVSD (R10), X0
	VMOVSD X0, 16(DI)
	VMOVSD (R11), X0
	VMOVSD X0, 24(DI)
	ADDQ  $8, SI
	ADDQ  $8, R9
	ADDQ  $8, R10
	ADDQ  $8, R11
	ADDQ  R13, DI
	DECQ  CX
	JNZ   tail1

done:
	VZEROUPPER
	RET


// The small-triangle solves trsmFwd4AVX and trsmBwd4AVX. Both hold an
// 8-row tile of four columns of X in Y0-Y7: column s in Y(2s) (tile rows
// 0-3) and Y(2s+1) (rows 4-7). Y14 and Y15 mask the rows that exist in
// those two halves: all ones, except in the one partial tile when m is
// not a multiple of 8. Masked-off rows load as zero, are never stored,
// and are never solved, so no row outside [0, m) is read from or
// written to memory.

// trsmMask: a partial tile's masks are eight consecutive quadwords of
// this table, starting at 8-r (forward: the first r rows exist) or at
// 8+r (backward: the last r rows exist).
DATA trsmMask<>+0(SB)/8, $-1
DATA trsmMask<>+8(SB)/8, $-1
DATA trsmMask<>+16(SB)/8, $-1
DATA trsmMask<>+24(SB)/8, $-1
DATA trsmMask<>+32(SB)/8, $-1
DATA trsmMask<>+40(SB)/8, $-1
DATA trsmMask<>+48(SB)/8, $-1
DATA trsmMask<>+56(SB)/8, $-1
DATA trsmMask<>+64(SB)/8, $0
DATA trsmMask<>+72(SB)/8, $0
DATA trsmMask<>+80(SB)/8, $0
DATA trsmMask<>+88(SB)/8, $0
DATA trsmMask<>+96(SB)/8, $0
DATA trsmMask<>+104(SB)/8, $0
DATA trsmMask<>+112(SB)/8, $0
DATA trsmMask<>+120(SB)/8, $0
DATA trsmMask<>+128(SB)/8, $-1
DATA trsmMask<>+136(SB)/8, $-1
DATA trsmMask<>+144(SB)/8, $-1
DATA trsmMask<>+152(SB)/8, $-1
DATA trsmMask<>+160(SB)/8, $-1
DATA trsmMask<>+168(SB)/8, $-1
DATA trsmMask<>+176(SB)/8, $-1
DATA trsmMask<>+184(SB)/8, $-1
GLOBL trsmMask<>(SB), RODATA|NOPTR, $192

// TRANSPOSE4 transposes the 4x4 block whose columns are a-d in place,
// through Y8-Y11: the tile's banks turn into rows (lane = column) before
// the diagonal triangle is solved and back into columns after.
#define TRANSPOSE4(a, b, c, d) \
	VUNPCKLPD  b, a, Y8; \
	VUNPCKHPD  b, a, Y9; \
	VUNPCKLPD  d, c, Y10; \
	VUNPCKHPD  d, c, Y11; \
	VPERM2F128 $0x20, Y10, Y8, a; \
	VPERM2F128 $0x20, Y11, Y9, b; \
	VPERM2F128 $0x31, Y10, Y8, c; \
	VPERM2F128 $0x31, Y11, Y9, d

// DIAGBASE points R12 and R13 at columns 0 and 4 of the diagonal block
// and R14 at 3*ldt, so every T[r, p] of the block is one addressing
// mode off R12 or R13.
#define DIAGBASE \
	LEAQ (R8)(R8*2), R14; \
	LEAQ (R12)(R8*4), R13

// LOADTILE loads and STORETILE stores the tile at R11 through the masks.
#define LOADTILE \
	VMASKMOVPD (R11), Y14, Y0; \
	VMASKMOVPD 32(R11), Y15, Y1; \
	VMASKMOVPD (R11)(R9*1), Y14, Y2; \
	VMASKMOVPD 32(R11)(R9*1), Y15, Y3; \
	VMASKMOVPD (R11)(R9*2), Y14, Y4; \
	VMASKMOVPD 32(R11)(R9*2), Y15, Y5; \
	VMASKMOVPD (R11)(R10*1), Y14, Y6; \
	VMASKMOVPD 32(R11)(R10*1), Y15, Y7

#define STORETILE \
	VMASKMOVPD Y0, Y14, (R11); \
	VMASKMOVPD Y1, Y15, 32(R11); \
	VMASKMOVPD Y2, Y14, (R11)(R9*1); \
	VMASKMOVPD Y3, Y15, 32(R11)(R9*1); \
	VMASKMOVPD Y4, Y14, (R11)(R9*2); \
	VMASKMOVPD Y5, Y15, 32(R11)(R9*2); \
	VMASKMOVPD Y6, Y14, (R11)(R10*1); \
	VMASKMOVPD Y7, Y15, 32(R11)(R10*1)

// UPDATE subtracts one solved row p of X (at R13, four broadcasts) times
// T's column p in the tile's rows (LOADCOL, at R12) from the tile: the
// off-diagonal part, a rank-1 GEMM step. Full tiles load the column
// plainly, the partial tile through the masks.
#define UPDATE(LOADCOL) \
	LOADCOL; \
	VBROADCASTSD (R13), Y10; \
	VBROADCASTSD (R13)(R9*1), Y11; \
	VFNMADD231PD Y8, Y10, Y0; \
	VFNMADD231PD Y9, Y10, Y1; \
	VBROADCASTSD (R13)(R9*2), Y12; \
	VFNMADD231PD Y8, Y11, Y2; \
	VFNMADD231PD Y9, Y11, Y3; \
	VBROADCASTSD (R13)(R10*1), Y13; \
	VFNMADD231PD Y8, Y12, Y4; \
	VFNMADD231PD Y9, Y12, Y5; \
	VFNMADD231PD Y8, Y13, Y6; \
	VFNMADD231PD Y9, Y13, Y7

#define COLFULL \
	VMOVUPD (R12), Y8; \
	VMOVUPD 32(R12), Y9

#define COLMASKED \
	VMASKMOVPD (R12), Y14, Y8; \
	VMASKMOVPD 32(R12), Y15, Y9

// func trsmFwd4AVX(t *float64, ldt int, x *float64, ldx, m int)
//
// Forward substitution L*X = X in place for four columns of X: L is the
// m x m lower triangle at t (column-major, stride ldt), X the m x 4
// block at x (stride ldx), m >= 1. A tile first takes the updates of
// every row above it, p ascending, reading L's column segments
// contiguously; then its diagonal triangle is solved in registers. Every
// element thus receives the FMAs of a column-at-a-time solve, in the
// same order, followed by the same division.
TEXT ·trsmFwd4AVX(SB), NOSPLIT, $0-40
	MOVQ     t+0(FP), DI
	MOVQ     ldt+8(FP), R8
	MOVQ     x+16(FP), SI
	MOVQ     ldx+24(FP), R9
	MOVQ     m+32(FP), CX
	SHLQ     $3, R8
	SHLQ     $3, R9
	LEAQ     (R9)(R9*2), R10
	XORQ     BX, BX
	VPCMPEQQ Y14, Y14, Y14
	VPCMPEQQ Y15, Y15, Y15

ftile:
	// BX: the tile's first row. DX: its rows, at most 8.
	MOVQ CX, DX
	SUBQ BX, DX
	CMPQ DX, $8
	JLT  fpartial
	MOVQ $8, DX
	JMP  fload

fpartial:
	LEAQ    trsmMask<>(SB), AX
	NEGQ    DX
	VMOVDQU 64(AX)(DX*8), Y14
	VMOVDQU 96(AX)(DX*8), Y15
	NEGQ    DX

fload:
	LEAQ (SI)(BX*8), R11
	LOADTILE

	// Rows p < BX, ascending: R12 walks L[BX:BX+8, p], R13 walks X[p, 0].
	LEAQ  (DI)(BX*8), R12
	MOVQ  SI, R13
	MOVQ  BX, R14
	TESTQ R14, R14
	JZ    fdiag
	CMPQ  DX, $8
	JLT   fupdatem

fupdate:
	UPDATE(COLFULL)
	ADDQ R8, R12
	ADDQ $8, R13
	DECQ R14
	JNZ  fupdate
	JMP  fdiag

fupdatem:
	UPDATE(COLMASKED)
	ADDQ R8, R12
	ADDQ $8, R13
	DECQ R14
	JNZ  fupdatem

fdiag:
	// R12 is L[BX, BX], column 0 of the diagonal block. Turn the banks
	// into rows: row r of the tile is then Y0, Y2, Y4, Y6, Y1, Y3, Y5, Y7
	// for r = 0…7, and row r takes x_p · L[r, p] off for p < r, p
	// ascending, then one division.
	TRANSPOSE4(Y0, Y2, Y4, Y6)
	TRANSPOSE4(Y1, Y3, Y5, Y7)
	DIAGBASE
	// Row 0.
	VBROADCASTSD 0(R12), Y8
	VDIVPD       Y8, Y0, Y0
	DECQ         DX
	JZ           fsolved
	// Row 1.
	VBROADCASTSD 8(R12), Y9
	VFNMADD231PD Y9, Y0, Y2
	VBROADCASTSD 8(R12)(R8*1), Y10
	VDIVPD       Y10, Y2, Y2
	DECQ         DX
	JZ           fsolved
	// Row 2.
	VBROADCASTSD 16(R12), Y11
	VFNMADD231PD Y11, Y0, Y4
	VBROADCASTSD 16(R12)(R8*1), Y12
	VFNMADD231PD Y12, Y2, Y4
	VBROADCASTSD 16(R12)(R8*2), Y13
	VDIVPD       Y13, Y4, Y4
	DECQ         DX
	JZ           fsolved
	// Row 3.
	VBROADCASTSD 24(R12), Y8
	VFNMADD231PD Y8, Y0, Y6
	VBROADCASTSD 24(R12)(R8*1), Y9
	VFNMADD231PD Y9, Y2, Y6
	VBROADCASTSD 24(R12)(R8*2), Y10
	VFNMADD231PD Y10, Y4, Y6
	VBROADCASTSD 24(R12)(R14*1), Y11
	VDIVPD       Y11, Y6, Y6
	DECQ         DX
	JZ           fsolved
	// Row 4.
	VBROADCASTSD 32(R12), Y12
	VFNMADD231PD Y12, Y0, Y1
	VBROADCASTSD 32(R12)(R8*1), Y13
	VFNMADD231PD Y13, Y2, Y1
	VBROADCASTSD 32(R12)(R8*2), Y8
	VFNMADD231PD Y8, Y4, Y1
	VBROADCASTSD 32(R12)(R14*1), Y9
	VFNMADD231PD Y9, Y6, Y1
	VBROADCASTSD 32(R13), Y10
	VDIVPD       Y10, Y1, Y1
	DECQ         DX
	JZ           fsolved
	// Row 5.
	VBROADCASTSD 40(R12), Y11
	VFNMADD231PD Y11, Y0, Y3
	VBROADCASTSD 40(R12)(R8*1), Y12
	VFNMADD231PD Y12, Y2, Y3
	VBROADCASTSD 40(R12)(R8*2), Y13
	VFNMADD231PD Y13, Y4, Y3
	VBROADCASTSD 40(R12)(R14*1), Y8
	VFNMADD231PD Y8, Y6, Y3
	VBROADCASTSD 40(R13), Y9
	VFNMADD231PD Y9, Y1, Y3
	VBROADCASTSD 40(R13)(R8*1), Y10
	VDIVPD       Y10, Y3, Y3
	DECQ         DX
	JZ           fsolved
	// Row 6.
	VBROADCASTSD 48(R12), Y11
	VFNMADD231PD Y11, Y0, Y5
	VBROADCASTSD 48(R12)(R8*1), Y12
	VFNMADD231PD Y12, Y2, Y5
	VBROADCASTSD 48(R12)(R8*2), Y13
	VFNMADD231PD Y13, Y4, Y5
	VBROADCASTSD 48(R12)(R14*1), Y8
	VFNMADD231PD Y8, Y6, Y5
	VBROADCASTSD 48(R13), Y9
	VFNMADD231PD Y9, Y1, Y5
	VBROADCASTSD 48(R13)(R8*1), Y10
	VFNMADD231PD Y10, Y3, Y5
	VBROADCASTSD 48(R13)(R8*2), Y11
	VDIVPD       Y11, Y5, Y5
	DECQ         DX
	JZ           fsolved
	// Row 7.
	VBROADCASTSD 56(R12), Y12
	VFNMADD231PD Y12, Y0, Y7
	VBROADCASTSD 56(R12)(R8*1), Y13
	VFNMADD231PD Y13, Y2, Y7
	VBROADCASTSD 56(R12)(R8*2), Y8
	VFNMADD231PD Y8, Y4, Y7
	VBROADCASTSD 56(R12)(R14*1), Y9
	VFNMADD231PD Y9, Y6, Y7
	VBROADCASTSD 56(R13), Y10
	VFNMADD231PD Y10, Y1, Y7
	VBROADCASTSD 56(R13)(R8*1), Y11
	VFNMADD231PD Y11, Y3, Y7
	VBROADCASTSD 56(R13)(R8*2), Y12
	VFNMADD231PD Y12, Y5, Y7
	VBROADCASTSD 56(R13)(R14*1), Y13
	VDIVPD       Y13, Y7, Y7

fsolved:
	TRANSPOSE4(Y0, Y2, Y4, Y6)
	TRANSPOSE4(Y1, Y3, Y5, Y7)

fstore:
	STORETILE
	ADDQ $8, BX
	CMPQ BX, CX
	JLT  ftile
	VZEROUPPER
	RET

// func trsmBwd4AVX(t *float64, ldt int, x *float64, ldx, m int)
//
// Backward substitution U*X = X in place, the mirror image of
// trsmFwd4AVX: U is the m x m upper triangle at t, tiles run from the
// bottom, and each takes the updates of every row below it, p
// descending, before its diagonal triangle is solved bottom-up. The
// partial tile, if any, is the top one.
TEXT ·trsmBwd4AVX(SB), NOSPLIT, $0-40
	MOVQ     t+0(FP), DI
	MOVQ     ldt+8(FP), R8
	MOVQ     x+16(FP), SI
	MOVQ     ldx+24(FP), R9
	MOVQ     m+32(FP), CX
	SHLQ     $3, R8
	SHLQ     $3, R9
	LEAQ     (R9)(R9*2), R10
	MOVQ     CX, BX
	VPCMPEQQ Y14, Y14, Y14
	VPCMPEQQ Y15, Y15, Y15

btile:
	// BX: one past the tile's last row; the tile is rows BX-8…BX-1, of
	// which DX (at most 8) exist.
	MOVQ BX, DX
	CMPQ DX, $8
	JLT  bpartial
	MOVQ $8, DX
	JMP  bload

bpartial:
	LEAQ    trsmMask<>(SB), AX
	VMOVDQU 64(AX)(DX*8), Y14
	VMOVDQU 96(AX)(DX*8), Y15

bload:
	LEAQ -64(SI)(BX*8), R11
	LOADTILE

	// Rows p >= BX, descending: R12 walks U[BX-8:BX, p] from p = m-1,
	// R13 walks X[p, 0]. The walk ends at column BX-1, the diagonal
	// block's last.
	LEAQ  -1(CX), AX
	IMULQ R8, AX
	LEAQ  -64(DI)(BX*8), R12
	ADDQ  AX, R12
	LEAQ  -8(SI)(CX*8), R13
	MOVQ  CX, R14
	SUBQ  BX, R14
	JZ    bdiag
	CMPQ  DX, $8
	JLT   bupdatem

bupdate:
	UPDATE(COLFULL)
	SUBQ R8, R12
	SUBQ $8, R13
	DECQ R14
	JNZ  bupdate
	JMP  bdiag

bupdatem:
	UPDATE(COLMASKED)
	SUBQ R8, R12
	SUBQ $8, R13
	DECQ R14
	JNZ  bupdatem

bdiag:
	// R12 is U[BX-8, BX-1], column 7 of the diagonal block; step it back
	// to column 0. Rows are solved bottom-up, row r taking x_p · U[r, p]
	// off for p > r, p descending.
	MOVQ R8, AX
	SHLQ $3, AX
	SUBQ AX, R12
	ADDQ R8, R12
	TRANSPOSE4(Y0, Y2, Y4, Y6)
	TRANSPOSE4(Y1, Y3, Y5, Y7)
	DIAGBASE
	// Row 7.
	VBROADCASTSD 56(R13)(R14*1), Y8
	VDIVPD       Y8, Y7, Y7
	DECQ         DX
	JZ           bsolved
	// Row 6.
	VBROADCASTSD 48(R13)(R14*1), Y9
	VFNMADD231PD Y9, Y7, Y5
	VBROADCASTSD 48(R13)(R8*2), Y10
	VDIVPD       Y10, Y5, Y5
	DECQ         DX
	JZ           bsolved
	// Row 5.
	VBROADCASTSD 40(R13)(R14*1), Y11
	VFNMADD231PD Y11, Y7, Y3
	VBROADCASTSD 40(R13)(R8*2), Y12
	VFNMADD231PD Y12, Y5, Y3
	VBROADCASTSD 40(R13)(R8*1), Y13
	VDIVPD       Y13, Y3, Y3
	DECQ         DX
	JZ           bsolved
	// Row 4.
	VBROADCASTSD 32(R13)(R14*1), Y8
	VFNMADD231PD Y8, Y7, Y1
	VBROADCASTSD 32(R13)(R8*2), Y9
	VFNMADD231PD Y9, Y5, Y1
	VBROADCASTSD 32(R13)(R8*1), Y10
	VFNMADD231PD Y10, Y3, Y1
	VBROADCASTSD 32(R13), Y11
	VDIVPD       Y11, Y1, Y1
	DECQ         DX
	JZ           bsolved
	// Row 3.
	VBROADCASTSD 24(R13)(R14*1), Y12
	VFNMADD231PD Y12, Y7, Y6
	VBROADCASTSD 24(R13)(R8*2), Y13
	VFNMADD231PD Y13, Y5, Y6
	VBROADCASTSD 24(R13)(R8*1), Y8
	VFNMADD231PD Y8, Y3, Y6
	VBROADCASTSD 24(R13), Y9
	VFNMADD231PD Y9, Y1, Y6
	VBROADCASTSD 24(R12)(R14*1), Y10
	VDIVPD       Y10, Y6, Y6
	DECQ         DX
	JZ           bsolved
	// Row 2.
	VBROADCASTSD 16(R13)(R14*1), Y11
	VFNMADD231PD Y11, Y7, Y4
	VBROADCASTSD 16(R13)(R8*2), Y12
	VFNMADD231PD Y12, Y5, Y4
	VBROADCASTSD 16(R13)(R8*1), Y13
	VFNMADD231PD Y13, Y3, Y4
	VBROADCASTSD 16(R13), Y8
	VFNMADD231PD Y8, Y1, Y4
	VBROADCASTSD 16(R12)(R14*1), Y9
	VFNMADD231PD Y9, Y6, Y4
	VBROADCASTSD 16(R12)(R8*2), Y10
	VDIVPD       Y10, Y4, Y4
	DECQ         DX
	JZ           bsolved
	// Row 1.
	VBROADCASTSD 8(R13)(R14*1), Y11
	VFNMADD231PD Y11, Y7, Y2
	VBROADCASTSD 8(R13)(R8*2), Y12
	VFNMADD231PD Y12, Y5, Y2
	VBROADCASTSD 8(R13)(R8*1), Y13
	VFNMADD231PD Y13, Y3, Y2
	VBROADCASTSD 8(R13), Y8
	VFNMADD231PD Y8, Y1, Y2
	VBROADCASTSD 8(R12)(R14*1), Y9
	VFNMADD231PD Y9, Y6, Y2
	VBROADCASTSD 8(R12)(R8*2), Y10
	VFNMADD231PD Y10, Y4, Y2
	VBROADCASTSD 8(R12)(R8*1), Y11
	VDIVPD       Y11, Y2, Y2
	DECQ         DX
	JZ           bsolved
	// Row 0.
	VBROADCASTSD 0(R13)(R14*1), Y12
	VFNMADD231PD Y12, Y7, Y0
	VBROADCASTSD 0(R13)(R8*2), Y13
	VFNMADD231PD Y13, Y5, Y0
	VBROADCASTSD 0(R13)(R8*1), Y8
	VFNMADD231PD Y8, Y3, Y0
	VBROADCASTSD 0(R13), Y9
	VFNMADD231PD Y9, Y1, Y0
	VBROADCASTSD 0(R12)(R14*1), Y10
	VFNMADD231PD Y10, Y6, Y0
	VBROADCASTSD 0(R12)(R8*2), Y11
	VFNMADD231PD Y11, Y4, Y0
	VBROADCASTSD 0(R12)(R8*1), Y12
	VFNMADD231PD Y12, Y2, Y0
	VBROADCASTSD 0(R12), Y13
	VDIVPD       Y13, Y0, Y0

bsolved:
	TRANSPOSE4(Y0, Y2, Y4, Y6)
	TRANSPOSE4(Y1, Y3, Y5, Y7)

bstore:
	STORETILE
	SUBQ $8, BX
	JGT  btile
	VZEROUPPER
	RET
