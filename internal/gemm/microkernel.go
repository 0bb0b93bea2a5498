package gemm

// The register micro-kernels compute one MR x NR output tile from MR
// rows of A and one NR-wide panel of B, each read through a stride:
// element (ii, jj) accumulates sum_p a[ii*lda+p] * b[p*ldb+jj] in
// strictly ascending p order, one multiply and one separate add per
// step, from +0, and is then stored to c[ii*ldc+jj] once, bare or added
// to its start value (C itself, or a row or column bias) — the
// bit-equality contract stated on Kernel. The strides let the GEMM hand
// a kernel a strip of A and a panel of a row-major B where they already
// sit, and let a full tile land in C directly.
//
// Per architecture, hand-written implementations register themselves
// behind the dispatch layer (see kernel.go): SSE, AVX2 and AVX-512
// versions on amd64 (microkernel_amd64.s), a NEON version on arm64
// (microkernel_arm64.s, which still reads packed operands). Packed
// lane-wise MULPS/ADDPS — and their VEX/NEON counterparts — perform the
// same IEEE-754 single-precision operations per lane as Go's scalar
// float32 multiply and add, and every version executes the identical
// per-element operation sequence, so their outputs are bit-identical to
// the pure-Go kernels (TestMicroKernelVariantsMatchGeneric pins this
// tile for tile, TestDispatchVariantsBitEqual end to end).

// storeTile writes the rows x cols corner of tile t (row stride nr)
// to c (row stride ldc), each element added to its start: c = st + t,
// or c = t when st has no values.
func storeTile(rows, cols, nr int, t, c []float32, ldc int, st start) {
	for ii := 0; ii < rows; ii++ {
		crow := c[ii*ldc : ii*ldc+cols]
		trow := t[ii*nr : ii*nr+cols]
		if st.v == nil {
			copy(crow, trow)
			continue
		}
		v := st.v[ii*st.rs:]
		for jj := range crow {
			crow[jj] = v[jj*st.cs] + trow[jj]
		}
	}
}

// microTileGo is the portable 4x8 micro-kernel: the pure-Go fallback
// dispatch uses (QSDNN_DISABLE_SIMD, non-SIMD builds) and the
// reference the SSE kernel is tested against. It takes the strides of
// the Kernel.micro contract.
func microTileGo(k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, st start) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float32
	var c10, c11, c12, c13, c14, c15, c16, c17 float32
	var c20, c21, c22, c23, c24, c25, c26, c27 float32
	var c30, c31, c32, c33, c34, c35, c36, c37 float32
	var r0, r1, r2, r3 []float32
	if k > 0 {
		r0, r1, r2, r3 = a[:k], a[lda:lda+k], a[2*lda:2*lda+k], a[3*lda:3*lda+k]
	}
	for p := range r0 {
		a0, a1, a2, a3 := r0[p], r1[p], r2[p], r3[p]
		bs := b[p*ldb : p*ldb+8 : p*ldb+8]
		b0, b1, b2, b3, b4, b5, b6, b7 := bs[0], bs[1], bs[2], bs[3], bs[4], bs[5], bs[6], bs[7]
		c00 += float32(a0 * b0)
		c01 += float32(a0 * b1)
		c02 += float32(a0 * b2)
		c03 += float32(a0 * b3)
		c04 += float32(a0 * b4)
		c05 += float32(a0 * b5)
		c06 += float32(a0 * b6)
		c07 += float32(a0 * b7)
		c10 += float32(a1 * b0)
		c11 += float32(a1 * b1)
		c12 += float32(a1 * b2)
		c13 += float32(a1 * b3)
		c14 += float32(a1 * b4)
		c15 += float32(a1 * b5)
		c16 += float32(a1 * b6)
		c17 += float32(a1 * b7)
		c20 += float32(a2 * b0)
		c21 += float32(a2 * b1)
		c22 += float32(a2 * b2)
		c23 += float32(a2 * b3)
		c24 += float32(a2 * b4)
		c25 += float32(a2 * b5)
		c26 += float32(a2 * b6)
		c27 += float32(a2 * b7)
		c30 += float32(a3 * b0)
		c31 += float32(a3 * b1)
		c32 += float32(a3 * b2)
		c33 += float32(a3 * b3)
		c34 += float32(a3 * b4)
		c35 += float32(a3 * b5)
		c36 += float32(a3 * b6)
		c37 += float32(a3 * b7)
	}
	t := [32]float32{
		c00, c01, c02, c03, c04, c05, c06, c07,
		c10, c11, c12, c13, c14, c15, c16, c17,
		c20, c21, c22, c23, c24, c25, c26, c27,
		c30, c31, c32, c33, c34, c35, c36, c37,
	}
	storeTile(4, 8, 8, t[:], c, ldc, st)
}
