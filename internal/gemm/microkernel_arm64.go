//go:build arm64

package gemm

// microKernelNEON is implemented in microkernel_arm64.s. It computes
// an 8x8 tile from a packed A strip (p-major, eight values per step)
// and a packed B panel (eight values per step) with NEON vector
// mul+add pairs (no FMLA — the bit-equality contract forbids the
// skipped intermediate rounding), bit-identical to microTileGeneric.
//
//go:noescape
func microKernelNEON(k int, ap, bp, t *float32)

// microTileNEON adapts the NEON asm kernel to the dispatch signature.
// The kernel reads packed operands only, so its descriptor sets packs:
// a is the packed strip (lda unused) and b the packed panel (ldb = 8).
// The tile lands on the stack and is stored from there by the Go
// storeTile, which adds it to its start, so the asm needs no store
// modes.
func microTileNEON(k int, a []float32, _ int, b []float32, _ int, c []float32, ldc int, st start) {
	var t [64]float32
	if k > 0 {
		_ = a[k*8-1]
		_ = b[k*8-1]
		microKernelNEON(k, &a[0], &b[0], &t[0])
	}
	storeTile(8, 8, 8, t[:], c, ldc, st)
}

// registerArchKernels registers the arm64 kernel. Advanced SIMD is
// architecturally mandatory on ARMv8-A application profiles, so the
// NEON kernel needs no feature probe; QSDNN_DISABLE_SIMD still forces
// the pure-Go fallback.
func registerArchKernels() {
	registerKernel(&Kernel{Name: "neon-8x8", MR: 8, NR: 8, micro: microTileNEON, packs: true, rows: goRows}, true)
}
