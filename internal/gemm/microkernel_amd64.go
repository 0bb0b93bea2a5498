//go:build amd64

package gemm

import "unsafe"

// microKernelSSE is implemented in microkernel_amd64.s. It computes a
// 4x8 tile sum_p a[ii*lda+p]*b[p*ldb+jj] with SSE packed single ops
// and stores it to, or adds it into, c[ii*ldc+jj], bit-identical to
// microTileGo (see microkernel.go).
//
//go:noescape
func microKernelSSE(k int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, add bool)

// microKernelAVX2 is implemented in microkernel_amd64.s. It computes
// an 8x8 tile with YMM mul+add pairs (no FMA — the bit-equality
// contract forbids the skipped intermediate rounding), bit-identical
// to microTileGeneric.
//
//go:noescape
func microKernelAVX2(k int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, add bool)

// checkTile panics unless the mr x nr tile over k steps lies inside a,
// b and c under their strides: the asm kernels index unchecked. With
// k = 0 only c is read.
func checkTile(k, mr, nr int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	_ = c[(mr-1)*ldc+nr-1]
	if k > 0 {
		_ = a[(mr-1)*lda+k-1]
		_ = b[(k-1)*ldb+nr-1]
	}
}

// microTileSSE adapts the SSE asm kernel to the dispatch signature.
func microTileSSE(k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, add bool) {
	checkTile(k, 4, 8, a, lda, b, ldb, c, ldc)
	microKernelSSE(k, unsafe.SliceData(a), lda, unsafe.SliceData(b), ldb, &c[0], ldc, add)
}

// microTileAVX2 adapts the AVX2 asm kernel to the dispatch signature.
func microTileAVX2(k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, add bool) {
	checkTile(k, 8, 8, a, lda, b, ldb, c, ldc)
	microKernelAVX2(k, unsafe.SliceData(a), lda, unsafe.SliceData(b), ldb, &c[0], ldc, add)
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
