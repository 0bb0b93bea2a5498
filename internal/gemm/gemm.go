// Package gemm provides the dense matrix-multiply and matrix-vector
// routines the convolution lowerings (im2col / im2row / kn2row) and the
// fully-connected kernels are built on. All matrices are row-major
// float32 slices. Two GEMM variants are provided — a straightforward
// triple loop (Naive) and a packed, register-tiled, worker-parallel
// pipeline (Parallel, packed.go) — mirroring how a dependency-free
// "Vanilla" engine differs from a tuned BLAS.
package gemm

import "fmt"

// checkDims panics when a slice is too short for the stated dimensions;
// out-of-range writes in kernels would otherwise corrupt silently.
func checkDims(name string, s []float32, want int) {
	if len(s) < want {
		panic(fmt.Sprintf("gemm: %s has %d elements, need %d", name, len(s), want))
	}
}

// Naive computes C = A*B + C for row-major A (m x k), B (k x n),
// C (m x n) with the textbook ikj loop order.
func Naive(m, n, k int, a, b, c []float32) {
	checkDims("A", a, m*k)
	checkDims("B", b, k*n)
	checkDims("C", c, m*n)
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// Gemv computes y = A*x + y for row-major A (m x n), x (n), y (m).
// This is the cuBLAS-style routine used for batch-1 fully-connected
// layers.
func Gemv(m, n int, a, x, y []float32) {
	checkDims("A", a, m*n)
	checkDims("x", x, n)
	checkDims("y", y, m)
	for i := 0; i < m; i++ {
		arow := a[i*n : i*n+n]
		var sum float32
		for j, v := range arow {
			sum += v * x[j]
		}
		y[i] += sum
	}
}

// Transpose writes the transpose of row-major src (rows x cols) into
// dst (cols x rows).
func Transpose(rows, cols int, src, dst []float32) {
	checkDims("src", src, rows*cols)
	checkDims("dst", dst, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
}
