package gemm

// The register micro-kernels compute one MR x NR output tile from a
// packed A strip (p-major, MR values per step) and a packed B panel
// (p-major, NR values per step): t[ii*NR+jj] accumulates
// sum_p ap[p*MR+ii] * bp[p*NR+jj] with each element reduced in
// strictly ascending p order, one multiply and one separate add per
// step — the bit-equality contract stated on Kernel.
//
// Per architecture, hand-written implementations register themselves
// behind the dispatch layer (see kernel.go): SSE and AVX2 versions on
// amd64 (microkernel_amd64.s), a NEON version on arm64
// (microkernel_arm64.s). Packed lane-wise MULPS/ADDPS — and their
// VEX/NEON counterparts — perform the same IEEE-754 single-precision
// operations per lane as Go's scalar float32 multiply and add, and
// every version executes the identical per-element operation sequence,
// so their outputs are bit-identical to the pure-Go kernels
// (TestMicroKernelVariantsMatchGeneric pins this tile-for-tile,
// TestDispatchVariantsBitEqual end to end).

// microTileGo is the portable 4x8 micro-kernel: the pure-Go fallback
// dispatch uses (QSDNN_DISABLE_SIMD, non-SIMD builds) and the
// reference the SSE kernel is tested against. ap must hold k*4
// elements, bp k*8, laid out as packStripABlock / packBBlock produce them; t
// receives the 32-element tile.
func microTileGo(k int, ap, bp, t []float32) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float32
	var c10, c11, c12, c13, c14, c15, c16, c17 float32
	var c20, c21, c22, c23, c24, c25, c26, c27 float32
	var c30, c31, c32, c33, c34, c35, c36, c37 float32
	for p := 0; p < k; p++ {
		a := ap[p*4 : p*4+4 : p*4+4]
		b := bp[p*8 : p*8+8 : p*8+8]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c24 += a2 * b4
		c25 += a2 * b5
		c26 += a2 * b6
		c27 += a2 * b7
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		c34 += a3 * b4
		c35 += a3 * b5
		c36 += a3 * b6
		c37 += a3 * b7
	}
	t = t[:32:32]
	t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = c00, c01, c02, c03, c04, c05, c06, c07
	t[8], t[9], t[10], t[11], t[12], t[13], t[14], t[15] = c10, c11, c12, c13, c14, c15, c16, c17
	t[16], t[17], t[18], t[19], t[20], t[21], t[22], t[23] = c20, c21, c22, c23, c24, c25, c26, c27
	t[24], t[25], t[26], t[27], t[28], t[29], t[30], t[31] = c30, c31, c32, c33, c34, c35, c36, c37
}
