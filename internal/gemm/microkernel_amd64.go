//go:build amd64

package gemm

// microKernelSSE is implemented in microkernel_amd64.s. It computes a
// 4x8 tile sum_p ap[p*4+ii]*bp[p*8+jj] into t with SSE packed single
// ops, bit-identical to microTileGo (see microkernel.go).
//
//go:noescape
func microKernelSSE(k int, ap, bp, t *float32)

// microKernelAVX2 is implemented in microkernel_amd64.s. It computes
// an 8x8 tile with YMM mul+add pairs (no FMA — the bit-equality
// contract forbids the skipped intermediate rounding), bit-identical
// to microTileGo8x8.
//
//go:noescape
func microKernelAVX2(k int, ap, bp, t *float32)

// microTileSSE adapts the SSE asm kernel to the dispatch signature.
func microTileSSE(k int, ap, bp, t []float32) {
	t = t[:32]
	if k <= 0 {
		for i := range t {
			t[i] = 0
		}
		return
	}
	_ = ap[k*4-1]
	_ = bp[k*8-1]
	microKernelSSE(k, &ap[0], &bp[0], &t[0])
}

// microTileAVX2 adapts the AVX2 asm kernel to the dispatch signature.
func microTileAVX2(k int, ap, bp, t []float32) {
	t = t[:64]
	if k <= 0 {
		for i := range t {
			t[i] = 0
		}
		return
	}
	_ = ap[k*8-1]
	_ = bp[k*8-1]
	microKernelAVX2(k, &ap[0], &bp[0], &t[0])
}

// registerArchKernels registers the amd64 kernels: SSE is baseline on
// the architecture and always available; the wider AVX2 kernel is
// registered ahead of it when CPUID reports both the instruction set
// and OS support for YMM state, and carries the AVX2 rows (rows_amd64.go).
func registerArchKernels() {
	registerKernel(&Kernel{Name: "sse-4x8", MR: 4, NR: 8, micro: microTileSSE, rows: goRows})
	if hasAVX2() {
		registerKernel(&Kernel{Name: "avx2-8x8", MR: 8, NR: 8, micro: microTileAVX2, rows: avx2Rows})
	}
}
