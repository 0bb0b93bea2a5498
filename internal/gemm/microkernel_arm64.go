//go:build arm64

package gemm

// microKernelNEON is implemented in microkernel_arm64.s. It computes
// an 8x8 tile with NEON vector mul+add pairs (no FMLA — the
// bit-equality contract forbids the skipped intermediate rounding),
// bit-identical to microTileGo8x8.
//
//go:noescape
func microKernelNEON(k int, ap, bp, t *float32)

// microTileNEON adapts the NEON asm kernel to the dispatch signature.
func microTileNEON(k int, ap, bp, t []float32) {
	t = t[:64]
	if k <= 0 {
		for i := range t {
			t[i] = 0
		}
		return
	}
	_ = ap[k*8-1]
	_ = bp[k*8-1]
	microKernelNEON(k, &ap[0], &bp[0], &t[0])
}

// registerArchKernels registers the arm64 kernel. Advanced SIMD is
// architecturally mandatory on ARMv8-A application profiles, so the
// NEON kernel needs no feature probe; QSDNN_DISABLE_SIMD still forces
// the pure-Go fallback.
func registerArchKernels() {
	registerKernel(&Kernel{Name: "neon-8x8", MR: 8, NR: 8, micro: microTileNEON, rows: goRows})
}
