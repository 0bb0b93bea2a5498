//go:build amd64

#include "textflag.h"

// All three kernels read A row ii, step p at a[ii*lda+p] and B step p at
// b[p*ldb:], and write tile row ii to c[ii*ldc:] under the store mode
// (storeMode in microkernel_amd64.go): 0 stores the tile; 1 loads row
// ii of the start, v[ii*rs:], and stores start + tile; 2 broadcasts
// v[ii*rs] across the row and stores start + tile. Mode 1 with v = c
// and rs = ldc accumulates into C; mode 1 with rs = 0 adds a column
// bias, mode 2 with rs = 1 a row bias. Strides arrive in elements and
// are scaled to bytes on entry. The start is loaded into a register
// first so the add computes start + tile, the operand order of the Go
// code's c = start + t, which decides whose NaN a NaN result carries.

// func microKernelSSE(k int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, v *float32, rs int, mode int)
//
// SSE 4x8 micro-kernel. Eight XMM accumulators hold the 4x8 tile
// (X0/X1 = row 0 cols 0-3/4-7, ..., X6/X7 = row 3). Per k step: load
// the nr=8 B values once, broadcast each of the mr=4 A values, and do
// one MULPS + one ADDPS per half-row. Each output element sees exactly
// one IEEE-754 single multiply and one add per step, in ascending p
// order — the same operation sequence as microTileGo, so the results
// are bit-identical (MULPS/ADDPS are lane-wise IEEE single ops).
// SSE is baseline on amd64, so no feature detection is needed.
TEXT ·microKernelSSE(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), R11
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R12
	MOVQ v+56(FP), BX
	MOVQ rs+64(FP), R13
	MOVQ mode+72(FP), AX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9 // 3*lda bytes: row 3
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $2, R13

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	TESTQ CX, CX
	JZ    store

loop:
	MOVUPS (DI), X8      // b[0:4]
	MOVUPS 16(DI), X9    // b[4:8]

	MOVSS  (SI), X10     // broadcast a0
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X0
	MULPS  X9, X11
	ADDPS  X11, X1

	MOVSS  (SI)(R8*1), X10 // broadcast a1
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X2
	MULPS  X9, X11
	ADDPS  X11, X3

	MOVSS  (SI)(R8*2), X10 // broadcast a2
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X4
	MULPS  X9, X11
	ADDPS  X11, X5

	MOVSS  (SI)(R9*1), X10 // broadcast a3
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X6
	MULPS  X9, X11
	ADDPS  X11, X7

	ADDQ $4, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  loop

store:
	CMPQ AX, $1
	JEQ  storevector
	JGT  storebcast

	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	ADDQ   R12, DX
	MOVUPS X2, (DX)
	MOVUPS X3, 16(DX)
	ADDQ   R12, DX
	MOVUPS X4, (DX)
	MOVUPS X5, 16(DX)
	ADDQ   R12, DX
	MOVUPS X6, (DX)
	MOVUPS X7, 16(DX)
	RET

storevector:
	MOVUPS (BX), X8
	ADDPS  X0, X8
	MOVUPS 16(BX), X9
	ADDPS  X1, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	ADDQ   R13, BX
	MOVUPS (BX), X8
	ADDPS  X2, X8
	MOVUPS 16(BX), X9
	ADDPS  X3, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	ADDQ   R13, BX
	MOVUPS (BX), X8
	ADDPS  X4, X8
	MOVUPS 16(BX), X9
	ADDPS  X5, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	ADDQ   R13, BX
	MOVUPS (BX), X8
	ADDPS  X6, X8
	MOVUPS 16(BX), X9
	ADDPS  X7, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	RET

storebcast:
	MOVSS  (BX), X8
	SHUFPS $0x00, X8, X8
	MOVAPS X8, X9
	ADDPS  X0, X8
	ADDPS  X1, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	ADDQ   R13, BX
	MOVSS  (BX), X8
	SHUFPS $0x00, X8, X8
	MOVAPS X8, X9
	ADDPS  X2, X8
	ADDPS  X3, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	ADDQ   R13, BX
	MOVSS  (BX), X8
	SHUFPS $0x00, X8, X8
	MOVAPS X8, X9
	ADDPS  X4, X8
	ADDPS  X5, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	ADDQ   R12, DX
	ADDQ   R13, BX
	MOVSS  (BX), X8
	SHUFPS $0x00, X8, X8
	MOVAPS X8, X9
	ADDPS  X6, X8
	ADDPS  X7, X9
	MOVUPS X8, (DX)
	MOVUPS X9, 16(DX)
	RET

// func microKernelAVX2(k int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, v *float32, rs int, mode int)
//
// AVX2 8x8 micro-kernel. Eight YMM accumulators hold the 8x8 tile
// (Y0 = row 0, ..., Y7 = row 7, eight floats per register). Per k
// step: load the nr=8 B values once into Y8, broadcast each of the
// mr=8 A values, and do one VMULPS + one VADDPS per row. Rows 0-3 are
// addressed from SI and rows 4-7 from R10 = SI + 4*lda, each as base +
// {0, 1, 2}*lda or base + 3*lda (R9). Each output element sees exactly
// one IEEE-754 single multiply and one separate add per step, in
// ascending p order — the same operation sequence as microTileGeneric,
// so the results are bit-identical. Deliberately no VFMADD*: fused
// multiply-add skips the intermediate rounding and would break the
// cross-kernel bit-equality contract (kernel.go). Callers gate on
// hasAVX2 (CPUID + XGETBV), so no runtime check here.
TEXT ·microKernelAVX2(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), R11
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R12
	MOVQ v+56(FP), BX
	MOVQ rs+64(FP), R13
	MOVQ mode+72(FP), AX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9  // 3*lda bytes
	LEAQ (SI)(R8*4), R10 // row 4
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $2, R13

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JZ    avx2store

avx2loop:
	VMOVUPS (DI), Y8 // b[0:8]

	VBROADCASTSS (SI), Y9 // a0
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0
	VBROADCASTSS (SI)(R8*1), Y9 // a1
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y1, Y1
	VBROADCASTSS (SI)(R8*2), Y9 // a2
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y2, Y2
	VBROADCASTSS (SI)(R9*1), Y9 // a3
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y3, Y3
	VBROADCASTSS (R10), Y9 // a4
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y4, Y4
	VBROADCASTSS (R10)(R8*1), Y9 // a5
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y5, Y5
	VBROADCASTSS (R10)(R8*2), Y9 // a6
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6
	VBROADCASTSS (R10)(R9*1), Y9 // a7
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y7, Y7

	ADDQ $4, SI
	ADDQ $4, R10
	ADDQ R11, DI
	DECQ CX
	JNZ  avx2loop

avx2store:
	LEAQ (R12)(R12*2), R9 // 3*ldc bytes
	LEAQ (DX)(R12*4), R10 // row 4 of C
	LEAQ (R13)(R13*2), R8 // 3*rs bytes
	LEAQ (BX)(R13*4), R11 // row 4 of the start
	CMPQ AX, $1
	JEQ  avx2vector
	JGT  avx2bcast

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (DX)(R12*1)
	VMOVUPS Y2, (DX)(R12*2)
	VMOVUPS Y3, (DX)(R9*1)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, (R10)(R12*1)
	VMOVUPS Y6, (R10)(R12*2)
	VMOVUPS Y7, (R10)(R9*1)
	VZEROUPPER
	RET

avx2vector:
	VMOVUPS (BX), Y8
	VADDPS  Y0, Y8, Y0
	VMOVUPS Y0, (DX)
	VMOVUPS (BX)(R13*1), Y8
	VADDPS  Y1, Y8, Y1
	VMOVUPS Y1, (DX)(R12*1)
	VMOVUPS (BX)(R13*2), Y8
	VADDPS  Y2, Y8, Y2
	VMOVUPS Y2, (DX)(R12*2)
	VMOVUPS (BX)(R8*1), Y8
	VADDPS  Y3, Y8, Y3
	VMOVUPS Y3, (DX)(R9*1)
	VMOVUPS (R11), Y8
	VADDPS  Y4, Y8, Y4
	VMOVUPS Y4, (R10)
	VMOVUPS (R11)(R13*1), Y8
	VADDPS  Y5, Y8, Y5
	VMOVUPS Y5, (R10)(R12*1)
	VMOVUPS (R11)(R13*2), Y8
	VADDPS  Y6, Y8, Y6
	VMOVUPS Y6, (R10)(R12*2)
	VMOVUPS (R11)(R8*1), Y8
	VADDPS  Y7, Y8, Y7
	VMOVUPS Y7, (R10)(R9*1)
	VZEROUPPER
	RET

avx2bcast:
	VBROADCASTSS (BX), Y8
	VADDPS       Y0, Y8, Y0
	VMOVUPS      Y0, (DX)
	VBROADCASTSS (BX)(R13*1), Y8
	VADDPS       Y1, Y8, Y1
	VMOVUPS      Y1, (DX)(R12*1)
	VBROADCASTSS (BX)(R13*2), Y8
	VADDPS       Y2, Y8, Y2
	VMOVUPS      Y2, (DX)(R12*2)
	VBROADCASTSS (BX)(R8*1), Y8
	VADDPS       Y3, Y8, Y3
	VMOVUPS      Y3, (DX)(R9*1)
	VBROADCASTSS (R11), Y8
	VADDPS       Y4, Y8, Y4
	VMOVUPS      Y4, (R10)
	VBROADCASTSS (R11)(R13*1), Y8
	VADDPS       Y5, Y8, Y5
	VMOVUPS      Y5, (R10)(R12*1)
	VBROADCASTSS (R11)(R13*2), Y8
	VADDPS       Y6, Y8, Y6
	VMOVUPS      Y6, (R10)(R12*2)
	VBROADCASTSS (R11)(R8*1), Y8
	VADDPS       Y7, Y8, Y7
	VMOVUPS      Y7, (R10)(R9*1)
	VZEROUPPER
	RET

// func microKernelAVX512(k int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, v *float32, rs int, mode int)
//
// AVX-512 8x16 micro-kernel: the AVX2 kernel at twice the width. Eight
// ZMM accumulators hold the 8x16 tile (Z0 = row 0, ..., Z7 = row 7,
// sixteen floats per register). Per k step: load the nr=16 B values
// once into Z8, then per row multiply them by the A value broadcast
// from memory (VMULPS.BCST) and add the product into the row's
// accumulator with a separate VADDPS. Rows are addressed as in the
// AVX2 kernel. Each output element sees exactly one IEEE-754 single
// multiply and one separate add per step, in ascending p order, so the
// results are bit-identical to microTileGeneric; no VFMADD*, as for
// AVX2. The product is b*a rather than a*b, which only decides whose
// NaN a 0*Inf or NaN*NaN product carries (pinned as a class). Only
// AVX-512F instructions are used (VPXORD, not the AVX512DQ VXORPS, to
// zero), and only Z0-Z9, so the closing VZEROUPPER leaves no dirty
// upper state. Callers gate on simdSupport (CPUID + XGETBV).
TEXT ·microKernelAVX512(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), R11
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R12
	MOVQ v+56(FP), BX
	MOVQ rs+64(FP), R13
	MOVQ mode+72(FP), AX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9  // 3*lda bytes
	LEAQ (SI)(R8*4), R10 // row 4
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $2, R13

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

	TESTQ CX, CX
	JZ    avx512store

avx512loop:
	VMOVUPS (DI), Z8 // b[0:16]

	VMULPS.BCST  (SI), Z8, Z9 // a0
	VADDPS       Z9, Z0, Z0
	VMULPS.BCST  (SI)(R8*1), Z8, Z9 // a1
	VADDPS       Z9, Z1, Z1
	VMULPS.BCST  (SI)(R8*2), Z8, Z9 // a2
	VADDPS       Z9, Z2, Z2
	VMULPS.BCST  (SI)(R9*1), Z8, Z9 // a3
	VADDPS       Z9, Z3, Z3
	VMULPS.BCST  (R10), Z8, Z9 // a4
	VADDPS       Z9, Z4, Z4
	VMULPS.BCST  (R10)(R8*1), Z8, Z9 // a5
	VADDPS       Z9, Z5, Z5
	VMULPS.BCST  (R10)(R8*2), Z8, Z9 // a6
	VADDPS       Z9, Z6, Z6
	VMULPS.BCST  (R10)(R9*1), Z8, Z9 // a7
	VADDPS       Z9, Z7, Z7

	ADDQ $4, SI
	ADDQ $4, R10
	ADDQ R11, DI
	DECQ CX
	JNZ  avx512loop

avx512store:
	LEAQ (R12)(R12*2), R9 // 3*ldc bytes
	LEAQ (DX)(R12*4), R10 // row 4 of C
	LEAQ (R13)(R13*2), R8 // 3*rs bytes
	LEAQ (BX)(R13*4), R11 // row 4 of the start
	CMPQ AX, $1
	JEQ  avx512vector
	JGT  avx512bcast

	VMOVUPS Z0, (DX)
	VMOVUPS Z1, (DX)(R12*1)
	VMOVUPS Z2, (DX)(R12*2)
	VMOVUPS Z3, (DX)(R9*1)
	VMOVUPS Z4, (R10)
	VMOVUPS Z5, (R10)(R12*1)
	VMOVUPS Z6, (R10)(R12*2)
	VMOVUPS Z7, (R10)(R9*1)
	VZEROUPPER
	RET

avx512vector:
	VMOVUPS (BX), Z8
	VADDPS  Z0, Z8, Z0
	VMOVUPS Z0, (DX)
	VMOVUPS (BX)(R13*1), Z8
	VADDPS  Z1, Z8, Z1
	VMOVUPS Z1, (DX)(R12*1)
	VMOVUPS (BX)(R13*2), Z8
	VADDPS  Z2, Z8, Z2
	VMOVUPS Z2, (DX)(R12*2)
	VMOVUPS (BX)(R8*1), Z8
	VADDPS  Z3, Z8, Z3
	VMOVUPS Z3, (DX)(R9*1)
	VMOVUPS (R11), Z8
	VADDPS  Z4, Z8, Z4
	VMOVUPS Z4, (R10)
	VMOVUPS (R11)(R13*1), Z8
	VADDPS  Z5, Z8, Z5
	VMOVUPS Z5, (R10)(R12*1)
	VMOVUPS (R11)(R13*2), Z8
	VADDPS  Z6, Z8, Z6
	VMOVUPS Z6, (R10)(R12*2)
	VMOVUPS (R11)(R8*1), Z8
	VADDPS  Z7, Z8, Z7
	VMOVUPS Z7, (R10)(R9*1)
	VZEROUPPER
	RET

avx512bcast:
	VBROADCASTSS (BX), Z8
	VADDPS       Z0, Z8, Z0
	VMOVUPS      Z0, (DX)
	VBROADCASTSS (BX)(R13*1), Z8
	VADDPS       Z1, Z8, Z1
	VMOVUPS      Z1, (DX)(R12*1)
	VBROADCASTSS (BX)(R13*2), Z8
	VADDPS       Z2, Z8, Z2
	VMOVUPS      Z2, (DX)(R12*2)
	VBROADCASTSS (BX)(R8*1), Z8
	VADDPS       Z3, Z8, Z3
	VMOVUPS      Z3, (DX)(R9*1)
	VBROADCASTSS (R11), Z8
	VADDPS       Z4, Z8, Z4
	VMOVUPS      Z4, (R10)
	VBROADCASTSS (R11)(R13*1), Z8
	VADDPS       Z5, Z8, Z5
	VMOVUPS      Z5, (R10)(R12*1)
	VBROADCASTSS (R11)(R13*2), Z8
	VADDPS       Z6, Z8, Z6
	VMOVUPS      Z6, (R10)(R12*2)
	VBROADCASTSS (R11)(R8*1), Z8
	VADDPS       Z7, Z8, Z7
	VMOVUPS      Z7, (R10)(R9*1)
	VZEROUPPER
	RET
