//go:build amd64

#include "textflag.h"

// The AVX2 rows (rows.go states the contract). Every lane performs the
// scalar row's operations in the scalar row's order, with the lane-wise
// IEEE-754 single ops VCMPPS/VANDNPS/VMULPS/VADDPS and never an FMA, so
// each output carries the bits the pure-Go row gives it. Callers gate
// on hasAVX2 through the dispatch, so no runtime check here.

// dwmask holds 16 all-ones lanes then 16 zero lanes: the 8 (or 16)
// lanes loaded from dwmask+64-4*m enable the first m of them.
DATA dwmask<>+0(SB)/8, $0xffffffffffffffff
DATA dwmask<>+8(SB)/8, $0xffffffffffffffff
DATA dwmask<>+16(SB)/8, $0xffffffffffffffff
DATA dwmask<>+24(SB)/8, $0xffffffffffffffff
DATA dwmask<>+32(SB)/8, $0xffffffffffffffff
DATA dwmask<>+40(SB)/8, $0xffffffffffffffff
DATA dwmask<>+48(SB)/8, $0xffffffffffffffff
DATA dwmask<>+56(SB)/8, $0xffffffffffffffff
DATA dwmask<>+64(SB)/8, $0
DATA dwmask<>+72(SB)/8, $0
DATA dwmask<>+80(SB)/8, $0
DATA dwmask<>+88(SB)/8, $0
DATA dwmask<>+96(SB)/8, $0
DATA dwmask<>+104(SB)/8, $0
DATA dwmask<>+112(SB)/8, $0
DATA dwmask<>+120(SB)/8, $0
GLOBL dwmask<>(SB), RODATA|NOPTR, $128

// func reluRowAVX2(dst, src *float32, n int)
//
// n is a positive multiple of 8. Each lane is cleared when the
// ordered, quiet compare v < 0 holds (VCMPPS predicate LT_OQ, the
// scalar UCOMISS test) and kept otherwise, so -0 and NaN keep their
// bits; MAXPS would turn -0 into +0 and a NaN into 0.
TEXT ·reluRowAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPS Y15, Y15, Y15
	CMPQ CX, $32
	JLT  relu8

relu32:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VCMPPS  $0x11, Y15, Y0, Y4
	VCMPPS  $0x11, Y15, Y1, Y5
	VCMPPS  $0x11, Y15, Y2, Y6
	VCMPPS  $0x11, Y15, Y3, Y7
	VANDNPS Y0, Y4, Y0
	VANDNPS Y1, Y5, Y1
	VANDNPS Y2, Y6, Y2
	VANDNPS Y3, Y7, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     relu32

relu8:
	TESTQ CX, CX
	JZ    reludone

relu8loop:
	VMOVUPS (SI), Y0
	VCMPPS  $0x11, Y15, Y0, Y4
	VANDNPS Y0, Y4, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     relu8loop

reludone:
	VZEROUPPER
	RET

// func affineRowAVX2(dst, src *float32, n int, scale, shift float32)
//
// n is a positive multiple of 8. Each lane computes v*scale with
// VMULPS, then adds shift with VADDPS: the scalar v*scale + shift with
// its product rounded, never fused.
TEXT ·affineRowAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y14
	VBROADCASTSS shift+28(FP), Y15
	CMPQ         CX, $32
	JLT          affine8

affine32:
	VMULPS  (SI), Y14, Y0
	VMULPS  32(SI), Y14, Y1
	VMULPS  64(SI), Y14, Y2
	VMULPS  96(SI), Y14, Y3
	VADDPS  Y15, Y0, Y0
	VADDPS  Y15, Y1, Y1
	VADDPS  Y15, Y2, Y2
	VADDPS  Y15, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     affine32

affine8:
	TESTQ CX, CX
	JZ    affinedone

affine8loop:
	VMULPS  (SI), Y14, Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     affine8loop

affinedone:
	VZEROUPPER
	RET

// The depth-wise rows share one register plan:
//
//	DI   next output         SI   input column of the next output's taps
//	DX   first kernel row    R8   end of the valid kernel rows (DX+12*nk)
//	R12  input row bytes     R13  interior outputs left
//	AX   tap row pointer     CX   tap kernel-row pointer
//	BX   mask address        R9   mask length
//	Y15  bias in every lane  Y0   accumulator
//
// Every output starts from the bias and walks the valid input rows in
// order (AX, CX step one row together until CX reaches R8), adding the
// row's valid taps q = 0, 1, 2 each as a rounded product then an add:
// the r-major, q-minor order of the scalar row.

// DW_EDGE sums one output whose window is clipped to two columns: the
// taps Q0 and Q0+1 (byte offsets KQ and KQ+4 in a kernel row) at
// columns 0 and 1 of SI.
#define DW_EDGE(KQ, label) \
	VMOVAPS X15, X0         \
	MOVQ    SI, AX          \
	MOVQ    DX, CX          \
label:                      \
	VMOVSS  KQ(CX), X1      \
	VMULSS  (AX), X1, X1    \
	VADDSS  X1, X0, X0      \
	VMOVSS  KQ+4(CX), X2    \
	VMULSS  4(AX), X2, X2   \
	VADDSS  X2, X0, X0      \
	ADDQ    R12, AX         \
	ADDQ    $12, CX         \
	CMPQ    CX, R8          \
	JNE     label           \
	VMOVSS  X0, (DI)

// DW_TAPS adds one kernel row's three taps to Y0, with the inputs for
// taps 0, 1 and 2 in T0, T1 and T2.
#define DW_TAPS(T0, T1, T2) \
	VBROADCASTSS (CX), Y1  \
	VMULPS       T0, Y1, Y1 \
	VADDPS       Y1, Y0, Y0 \
	VBROADCASTSS 4(CX), Y2 \
	VMULPS       T1, Y2, Y2 \
	VADDPS       Y2, Y0, Y0 \
	VBROADCASTSS 8(CX), Y1 \
	VMULPS       T2, Y1, Y1 \
	VADDPS       Y1, Y0, Y0

// DW_NEXTROW steps AX and CX to the next valid input row and loops to
// label until the last one is done.
#define DW_NEXTROW(label) \
	ADDQ R12, AX \
	ADDQ $12, CX \
	CMPQ CX, R8  \
	JNE  label

// DW_MASK loads into Y the lane mask enabling the first M lanes, M in
// a register (clobbered), at byte offset OFF past the mask's start.
#define DW_MASK(M, OFF, Y) \
	NEGQ    M                   \
	LEAQ    dwmask<>+64(SB), BX \
	LEAQ    (BX)(M*4), BX       \
	VMOVUPS OFF(BX), Y

// func depthwise3x3RowS1AVX2(dst, x, k *float32, nk, w, inner, right int, b float32)
//
// Stride 1: output i reads input columns i-1, i and i+1, so eight
// outputs read three unaligned eight-lane loads per row.
TEXT ·depthwise3x3RowS1AVX2(SB), NOSPLIT, $0-60
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         k+16(FP), DX
	MOVQ         nk+24(FP), R8
	LEAQ         (R8)(R8*2), R8
	LEAQ         (DX)(R8*4), R8
	MOVQ         w+32(FP), R12
	SHLQ         $2, R12
	MOVQ         inner+40(FP), R13
	VBROADCASTSS b+56(FP), Y15
	DW_EDGE(4, s1left)
	ADDQ $4, DI

s1chunk:
	CMPQ R13, $8
	JLT  s1tail
	VMOVAPS Y15, Y0
	MOVQ    SI, AX
	MOVQ    DX, CX

s1taps:
	DW_TAPS((AX), 4(AX), 8(AX))
	DW_NEXTROW(s1taps)
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, R13
	JMP     s1chunk

s1tail:
	// Fewer than eight interior outputs left: masked loads and store
	// touch only their lanes.
	TESTQ   R13, R13
	JZ      s1right
	MOVQ    R13, R9
	DW_MASK(R9, 0, Y4)
	VMOVAPS Y15, Y0
	MOVQ    SI, AX
	MOVQ    DX, CX

s1ttaps:
	VMASKMOVPS (AX), Y4, Y5
	VMASKMOVPS 4(AX), Y4, Y6
	VMASKMOVPS 8(AX), Y4, Y7
	DW_TAPS(Y5, Y6, Y7)
	DW_NEXTROW(s1ttaps)
	VMASKMOVPS Y0, Y4, (DI)
	LEAQ       (SI)(R13*4), SI
	LEAQ       (DI)(R13*4), DI

s1right:
	MOVQ  right+48(FP), AX
	TESTQ AX, AX
	JZ    s1done
	DW_EDGE(0, s1redge)

s1done:
	VZEROUPPER
	RET

// DW_S2SPLIT de-interleaves for stride 2. Y1:Y2 hold the 16 inputs
// from the outputs' first tap column; their even columns go to Y3 (tap
// 0) and odd ones to Y4 (tap 1). Y5:Y6 hold the 16 inputs one column
// further on; their odd columns go to Y5 (tap 2). VSHUFPS gathers
// evens or odds within each 128-bit lane and VPERMPD $0xD8 puts the
// two lanes' halves in order.
#define DW_S2SPLIT \
	VSHUFPS $0x88, Y2, Y1, Y3 \
	VSHUFPS $0xDD, Y2, Y1, Y4 \
	VSHUFPS $0xDD, Y6, Y5, Y5 \
	VPERMPD $0xD8, Y3, Y3     \
	VPERMPD $0xD8, Y4, Y4     \
	VPERMPD $0xD8, Y5, Y5

// func depthwise3x3RowS2AVX2(dst, x, k *float32, nk, w, inner, right int, b float32)
//
// Stride 2: output i reads input columns 2i-1, 2i and 2i+1. Eight
// outputs read the 16 columns from 2i-1 and the 16 from 2i, and split
// them into even and odd columns in registers.
TEXT ·depthwise3x3RowS2AVX2(SB), NOSPLIT, $0-60
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         k+16(FP), DX
	MOVQ         nk+24(FP), R8
	LEAQ         (R8)(R8*2), R8
	LEAQ         (DX)(R8*4), R8
	MOVQ         w+32(FP), R12
	SHLQ         $2, R12
	MOVQ         inner+40(FP), R13
	VBROADCASTSS b+56(FP), Y15
	DW_EDGE(4, s2left)
	ADDQ $4, DI
	ADDQ $4, SI

s2chunk:
	CMPQ R13, $8
	JLT  s2tail
	VMOVAPS Y15, Y0
	MOVQ    SI, AX
	MOVQ    DX, CX

s2taps:
	VMOVUPS (AX), Y1
	VMOVUPS 32(AX), Y2
	VMOVUPS 4(AX), Y5
	VMOVUPS 36(AX), Y6
	DW_S2SPLIT
	DW_TAPS(Y3, Y4, Y5)
	DW_NEXTROW(s2taps)
	VMOVUPS Y0, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	SUBQ    $8, R13
	JMP     s2chunk

s2tail:
	// Fewer than eight interior outputs left: their taps span the first
	// 2*R13 of the 16 columns, masked in Y7 (columns 0-7) and Y8
	// (8-15); the store is masked to R13 lanes in Y9.
	TESTQ R13, R13
	JZ    s2right
	MOVQ  R13, R9
	SHLQ  $1, R9
	DW_MASK(R9, 0, Y7)
	VMOVUPS 32(BX), Y8
	MOVQ    R13, R9
	DW_MASK(R9, 0, Y9)
	VMOVAPS Y15, Y0
	MOVQ    SI, AX
	MOVQ    DX, CX

s2ttaps:
	VMASKMOVPS (AX), Y7, Y1
	VMASKMOVPS 32(AX), Y8, Y2
	VMASKMOVPS 4(AX), Y7, Y5
	VMASKMOVPS 36(AX), Y8, Y6
	DW_S2SPLIT
	DW_TAPS(Y3, Y4, Y5)
	DW_NEXTROW(s2ttaps)
	VMASKMOVPS Y0, Y9, (DI)
	LEAQ       (SI)(R13*8), SI
	LEAQ       (DI)(R13*4), DI

s2right:
	MOVQ  right+48(FP), AX
	TESTQ AX, AX
	JZ    s2done
	DW_EDGE(0, s2redge)

s2done:
	VZEROUPPER
	RET
