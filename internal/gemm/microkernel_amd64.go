//go:build amd64

package gemm

import "unsafe"

// microKernelSSE is implemented in microkernel_amd64.s. It computes a
// 4x8 tile sum_p a[ii*lda+p]*b[p*ldb+jj] with SSE packed single ops
// and stores it to c[ii*ldc+jj] under the store mode (see storeMode),
// bit-identical to microTileGo (see microkernel.go).
//
//go:noescape
func microKernelSSE(k int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, v *float32, rs int, mode int)

// microKernelAVX2 is implemented in microkernel_amd64.s. It computes
// an 8x8 tile with YMM mul+add pairs (no FMA — the bit-equality
// contract forbids the skipped intermediate rounding), bit-identical
// to microTileGeneric.
//
//go:noescape
func microKernelAVX2(k int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, v *float32, rs int, mode int)

// microKernelAVX512 is implemented in microkernel_amd64.s. It computes
// an 8x16 tile with ZMM mul+add pairs (no FMA, as for AVX2),
// bit-identical to microTileGeneric.
//
//go:noescape
func microKernelAVX512(k int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, v *float32, rs int, mode int)

// The asm kernels' store modes: the bare sum; st.v row ii (rs elements
// apart, a vector of column starts) plus the sum; or st.v[ii*rs]
// broadcast across the row plus the sum.
const (
	storeSum = iota
	storeVector
	storeBroadcast
)

// storeMode resolves st for an mr x nr asm tile, bounds-checking the
// last start value it reads.
func storeMode(mr, nr int, st start) (v *float32, rs, mode int) {
	switch {
	case st.v == nil:
		return nil, 0, storeSum
	case st.cs == 0:
		_ = st.v[(mr-1)*st.rs]
		return &st.v[0], st.rs, storeBroadcast
	case st.cs == 1:
		_ = st.v[(mr-1)*st.rs+nr-1]
		return &st.v[0], st.rs, storeVector
	}
	panic("gemm: tile start column stride must be 0 or 1")
}

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
func microTileSSE(k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, st start) {
	checkTile(k, 4, 8, a, lda, b, ldb, c, ldc)
	v, rs, mode := storeMode(4, 8, st)
	microKernelSSE(k, unsafe.SliceData(a), lda, unsafe.SliceData(b), ldb, &c[0], ldc, v, rs, mode)
}

// microTileAVX2 adapts the AVX2 asm kernel to the dispatch signature.
func microTileAVX2(k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, st start) {
	checkTile(k, 8, 8, a, lda, b, ldb, c, ldc)
	v, rs, mode := storeMode(8, 8, st)
	microKernelAVX2(k, unsafe.SliceData(a), lda, unsafe.SliceData(b), ldb, &c[0], ldc, v, rs, mode)
}

// microTileAVX512 adapts the AVX-512 asm kernel to the dispatch
// signature.
func microTileAVX512(k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, st start) {
	checkTile(k, 8, 16, a, lda, b, ldb, c, ldc)
	v, rs, mode := storeMode(8, 16, st)
	microKernelAVX512(k, unsafe.SliceData(a), lda, unsafe.SliceData(b), ldb, &c[0], ldc, v, rs, mode)
}

// registerArchKernels registers the amd64 kernels: SSE is baseline on
// the architecture and always available; the wider AVX2 kernel is
// registered ahead of it when CPUID reports both the instruction set
// and OS support for YMM state, and the AVX-512 kernel ahead of both
// when it also reports AVX-512F and OS support for opmask and ZMM state
// (see simdSupport). Both vector kernels carry the AVX2 rows
// (rows_amd64.go).
func registerArchKernels() {
	avx2, avx512 := probeSIMD()
	registerKernel(&Kernel{Name: "sse-4x8", MR: 4, NR: 8, micro: microTileSSE, rows: goRows}, true)
	registerKernel(&Kernel{Name: "avx2-8x8", MR: 8, NR: 8, micro: microTileAVX2, rows: avx2Rows}, avx2)
	registerKernel(&Kernel{Name: "avx512-8x16", MR: 8, NR: 16, micro: microTileAVX512, rows: avx2Rows}, avx512)
}
