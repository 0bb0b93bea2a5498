package kernels

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// CSR is a compressed-sparse-row float32 matrix, the storage behind
// the "Sparse" acceleration library: pruned convolution and FC weights
// kept compressed in memory (the paper lists Sparse as a library for
// conv and FC layers).
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Values     []float32
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Values) }

// Density returns the stored-to-total element ratio.
func (m *CSR) Density() float64 {
	if m.Rows*m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows*m.Cols)
}

// FromDense compresses a row-major dense matrix, dropping entries with
// |v| <= threshold. Threshold 0 keeps every exact non-zero.
func FromDense(rows, cols int, dense []float32, threshold float32) *CSR {
	if len(dense) != rows*cols {
		panic(fmt.Sprintf("kernels: dense matrix has %d elements, need %d", len(dense), rows*cols))
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := dense[i*cols+j]
			if v > threshold || v < -threshold {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Values = append(m.Values, v)
			}
		}
		m.RowPtr[i+1] = int32(len(m.Values))
	}
	return m
}

// ToDense expands the CSR matrix back to row-major dense form.
func (m *CSR) ToDense() []float32 {
	d := make([]float32, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i*m.Cols+int(m.ColIdx[k])] = m.Values[k]
		}
	}
	return d
}

// MulMat computes C = M*B + C for dense row-major B (Cols x n) and
// C (Rows x n) — a CSR-times-dense SpMM.
func (m *CSR) MulMat(n int, b, c []float32) {
	if len(b) < m.Cols*n || len(c) < m.Rows*n {
		panic("kernels: CSR MulMat operand too short")
	}
	for i := 0; i < m.Rows; i++ {
		crow := c[i*n : i*n+n]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			v := m.Values[k]
			brow := b[int(m.ColIdx[k])*n : int(m.ColIdx[k])*n+n]
			for j := range crow {
				crow[j] += float32(v * brow[j])
			}
		}
	}
}

// MulVec computes y = M*x + y — a CSR SpMV, the sparse FC kernel.
func (m *CSR) MulVec(x, y []float32) {
	if len(x) < m.Cols || len(y) < m.Rows {
		panic("kernels: CSR MulVec operand too short")
	}
	for i := 0; i < m.Rows; i++ {
		var sum float32
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += float32(m.Values[k] * x[m.ColIdx[k]])
		}
		y[i] += sum
	}
}

// ConvSparseScratch returns the scratch elements ConvSparse needs on
// input shape s: one sample's im2col matrix.
func ConvSparseScratch(s tensor.Shape, p nn.ConvParams) int {
	os := convOutShape(s, p.OutChannels, p)
	return s.C * p.KernelH * p.KernelW * os.H * os.W
}

// ConvSparse computes a dense-output convolution whose weights are a
// CSR matrix of shape (OC x C*KH*KW): im2col the input, then SpMM.
// scratch holds the im2col matrix: nil allocates it, otherwise it must
// hold ConvSparseScratch elements.
func ConvSparse(dst, in *tensor.Tensor, w *CSR, bias []float32, p nn.ConvParams, scratch []float32) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvSparse requires NCHW input")
	}
	s := in.Shape()
	if w.Rows != p.OutChannels || w.Cols != s.C*p.KernelH*p.KernelW {
		panic(fmt.Sprintf("kernels: sparse weights %dx%d incompatible with conv %d x %d",
			w.Rows, w.Cols, p.OutChannels, s.C*p.KernelH*p.KernelW))
	}
	if len(bias) != p.OutChannels {
		panic("kernels: sparse conv bias size mismatch")
	}
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	spatial := os.H * os.W
	cols := workspace(scratch, ConvSparseScratch(s, p))
	for n := 0; n < s.N; n++ {
		cols = Im2col(cols, in, n, p, os.H, os.W, 1)
		res := sample(out, n)
		fillBias(res, bias, spatial)
		w.MulMat(spatial, cols, res)
	}
	return out
}

// FCSparse computes a fully-connected layer with CSR weights
// (OutUnits x In): SpMV plus bias.
func FCSparse(dst, in *tensor.Tensor, w *CSR, bias []float32) *tensor.Tensor {
	s := in.Shape()
	inWidth := s.C * s.H * s.W
	if w.Cols != inWidth || len(bias) != w.Rows {
		panic(fmt.Sprintf("kernels: sparse FC %dx%d incompatible with input %d / bias %d",
			w.Rows, w.Cols, inWidth, len(bias)))
	}
	out := output(dst, tensor.Shape{N: s.N, C: w.Rows, H: 1, W: 1}, tensor.NCHW)
	for n := 0; n < s.N; n++ {
		x := in.Data()[n*inWidth : (n+1)*inWidth]
		y := out.Data()[n*w.Rows : (n+1)*w.Rows]
		copy(y, bias)
		w.MulVec(x, y)
	}
	return out
}
