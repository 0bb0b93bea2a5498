package kernels

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Im2col lowers an NCHW input into the (C*KH*KW) x (OH*OW) patch
// matrix: each column holds one receptive field, each row one
// (channel, kernel-offset) pair. Out-of-bounds (padding) entries are
// zero. This is the classic Caffe/BLAS lowering. The columns are
// partitioned into blocks across workers goroutines: column y*ow+x
// belongs to output row y, and each worker fills every matrix row for
// its own block of output rows. Every entry is a pure assignment into
// an exclusive column range, so the matrix is bit-identical at any
// worker count.
func Im2col(dst []float32, in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int) []float32 {
	m := matrix(dst, in.Shape().C*p.KernelH*p.KernelW*oh*ow)
	im2colRows(in, n, p, ow, 0, oh, workers, m)
	return m
}

// Im2row lowers an NCHW input into the (OH*OW) x (C*KH*KW) patch
// matrix — the transpose orientation of Im2col, matching BLAS
// libraries that prefer the patches as rows. The patch rows are
// partitioned by output row across workers goroutines; each patch is an
// exclusive slice, so the matrix is bit-identical at any worker count.
func Im2row(dst []float32, in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int) []float32 {
	m := matrix(dst, oh*ow*in.Shape().C*p.KernelH*p.KernelW)
	im2rowRows(in, n, p, ow, 0, oh, workers, m)
	return m
}

// matrix returns dst as a lowering's size-element matrix, or a fresh
// one when dst is nil. The lowerings write every entry.
func matrix(dst []float32, size int) []float32 {
	if dst == nil {
		return make([]float32, size)
	}
	if len(dst) != size {
		panic(fmt.Sprintf("kernels: destination has %d elements, the matrix %d", len(dst), size))
	}
	return dst
}

// im2colRows writes the im2col lowering of output rows [y0, y1) into
// m: a (C*KH*KW) x ((y1-y0)*ow) matrix, column y*ow+x at offset
// (y-y0)*ow+x. Each matrix row segment is gathered from one input row
// slice. Every entry is written (padding entries as zero), so a panel
// buffer can be reused across panels without clearing.
func im2colRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	cols := (y1 - y0) * ow
	src := sample(in, n)
	parFor(y1-y0, workers, func(yy int) {
		y := y0 + yy
		row := 0
		for c := 0; c < s.C; c++ {
			plane := src[c*s.H*s.W : (c+1)*s.H*s.W]
			for r := 0; r < p.KernelH; r++ {
				x := inputRow(plane, y*p.StrideH+r-p.PadH, s.H, s.W)
				for q := 0; q < p.KernelW; q++ {
					base := row*cols + yy*ow
					gatherRow(m[base:base+ow], x, p.StrideW, q-p.PadW)
					row++
				}
			}
		}
	})
}

// im2rowRows writes the im2row lowering of output rows [y0, y1) into
// m: a ((y1-y0)*ow) x (C*KH*KW) matrix, patch y*ow+x at row
// (y-y0)*ow+x. Each patch's KW-wide kernel rows are gathered from input
// row slices. Every entry is written, so the buffer reuses cleanly.
func im2rowRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	src := sample(in, n)
	parFor(y1-y0, workers, func(yy int) {
		y := y0 + yy
		for x := 0; x < ow; x++ {
			patch := m[(yy*ow+x)*ckk : (yy*ow+x+1)*ckk]
			iw0 := x*p.StrideW - p.PadW
			for c := 0; c < s.C; c++ {
				plane := src[c*s.H*s.W : (c+1)*s.H*s.W]
				for r := 0; r < p.KernelH; r++ {
					gatherRow(patch[:p.KernelW], inputRow(plane, y*p.StrideH+r-p.PadH, s.H, s.W), 1, iw0)
					patch = patch[p.KernelW:]
				}
			}
		}
	})
}

// sample returns the C*H*W values of sample n: C planes of H x W in
// NCHW, H*W pixels of C channels in NHWC.
func sample(t *tensor.Tensor, n int) []float32 {
	s := t.Shape()
	size := s.C * s.H * s.W
	return t.Data()[n*size : (n+1)*size]
}

// inputRow returns row ih of an h x w plane, or nil when ih falls in
// the padding.
func inputRow(plane []float32, ih, h, w int) []float32 {
	if ih < 0 || ih >= h {
		return nil
	}
	return plane[ih*w : (ih+1)*w]
}

// gatherRow sets dst[i] = x[i*stride+off] wherever that index lies
// inside x, and zero elsewhere (a nil x is a row of padding).
func gatherRow(dst, x []float32, stride, off int) {
	lo, hi := validSpan(len(dst), stride, off, len(x))
	clear(dst[:lo])
	if stride == 1 && lo < hi {
		copy(dst[lo:hi], x[lo+off:hi+off])
	} else {
		for i := lo; i < hi; i++ {
			dst[i] = x[i*stride+off]
		}
	}
	clear(dst[hi:])
}

// isPointwise reports whether p is a 1x1 convolution with stride 1 and
// no padding. Its im2col matrix and its only kn2row shifted view are
// both the input sample itself, so the lowerings skip the gather.
func isPointwise(p nn.ConvParams) bool {
	return p.KernelH == 1 && p.KernelW == 1 && p.StrideH == 1 && p.StrideW == 1 && p.PadH == 0 && p.PadW == 0
}

// fillBias sets row oc of the OC x n matrix dst to bias[oc]: the
// starting value the GEMM accumulates onto.
func fillBias(dst, bias []float32, n int) {
	for oc, b := range bias {
		row := dst[oc*n : (oc+1)*n]
		for i := range row {
			row[i] = b
		}
	}
}

// Gemm is the matrix-multiply signature the lowering kernels accept, so
// the same code path serves the naive (ATLAS-like) and packed/parallel
// (tuned-BLAS-like) backends.
type Gemm func(m, n, k int, a, b, c []float32)

// ConvIm2col computes a dense convolution as W (OC x CKK) times the
// im2col matrix (CKK x OHOW), using the supplied GEMM. The lowering is
// parallelized across column blocks (Im2col); the GEMM parallelism is
// whatever mul provides. Results are bit-identical at any worker count.
//
// The lowering and GEMM run over blocks of panel output rows (panel
// <= 0 or >= OH is one block). Panel tiling splits only the GEMM's n
// dimension: each output element keeps its full k reduction in one GEMM
// call, so the result does not depend on panel. When one block covers
// every row, the GEMM accumulates straight into the output sample, and
// a pointwise conv hands it the input sample in place of a gathered
// copy. Smaller blocks multiply into a scratch panel copied into the
// output rows.
func ConvIm2col(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers, panel int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvIm2col requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	whole := panel <= 0 || panel >= os.H
	if whole {
		panel = os.H
	}
	var cols, pres []float32
	if !whole || !isPointwise(p) {
		cols = make([]float32, ckk*panel*os.W)
	}
	if !whole {
		pres = make([]float32, p.OutChannels*panel*os.W)
	}
	for n := 0; n < s.N; n++ {
		res := sample(out, n)
		if whole {
			fillBias(res, bias, spatial)
			b := sample(in, n)
			if cols != nil {
				im2colRows(in, n, p, os.W, 0, os.H, workers, cols)
				b = cols
			}
			mul(p.OutChannels, spatial, ckk, w, b, res)
			continue
		}
		for y0 := 0; y0 < os.H; y0 += panel {
			y1 := min(y0+panel, os.H)
			pcols := (y1 - y0) * os.W
			im2colRows(in, n, p, os.W, y0, y1, workers, cols)
			fillBias(pres, bias, pcols)
			mul(p.OutChannels, pcols, ckk, w, cols, pres)
			for oc := 0; oc < p.OutChannels; oc++ {
				copy(res[oc*spatial+y0*os.W:oc*spatial+y1*os.W], pres[oc*pcols:(oc+1)*pcols])
			}
		}
	}
	return out
}

// ConvIm2row computes a dense convolution as the im2row matrix
// (OHOW x CKK) times W-transposed (CKK x OC), then transposes the
// result back into NCHW. The lowering is parallelized across patch-row
// blocks (Im2row); results are bit-identical at any worker count. The
// lowering and GEMM run over blocks of panel output rows (panel <= 0 or
// >= OH is one block), each block's (rows x OC) product transposed into
// the NCHW output. Blocks split the GEMM's m dimension only, so the
// result does not depend on panel.
func ConvIm2row(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers, panel int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvIm2row requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	if panel <= 0 || panel > os.H {
		panel = os.H
	}
	wt := make([]float32, len(w))
	gemm.Transpose(p.OutChannels, ckk, w, wt)
	rows := make([]float32, panel*os.W*ckk)
	pres := make([]float32, panel*os.W*p.OutChannels)
	for n := 0; n < s.N; n++ {
		res := sample(out, n)
		for y0 := 0; y0 < os.H; y0 += panel {
			y1 := min(y0+panel, os.H)
			prows := (y1 - y0) * os.W
			im2rowRows(in, n, p, os.W, y0, y1, workers, rows)
			for i := 0; i < prows; i++ {
				copy(pres[i*p.OutChannels:(i+1)*p.OutChannels], bias)
			}
			mul(prows, p.OutChannels, ckk, rows, wt, pres)
			for i := 0; i < prows; i++ {
				for oc := 0; oc < p.OutChannels; oc++ {
					res[oc*spatial+y0*os.W+i] = pres[i*p.OutChannels+oc]
				}
			}
		}
	}
	return out
}

// ConvKn2row computes a dense convolution as KH*KW rank-C GEMMs: for
// each kernel offset (r,q), the 1x1 sub-filter W[:, :, r, q] (OC x C)
// multiplies the correspondingly shifted input (C x OHOW) and
// accumulates into the output. The shifted view is gathered into a
// scratch buffer, which generalizes the textbook stride-1 kn2row to
// arbitrary stride and padding. The shifted-view gather is parallelized
// across input channels (each channel writes an exclusive plane of the
// scratch buffer); the GEMM parallelism is whatever mul provides.
// Results are bit-identical at any worker count. The lowering is
// already a sequence of rank-C GEMMs, so it takes no panel. The GEMMs
// accumulate straight into the output sample. A 1x1 kernel needs no
// weight regroup (its one OC x C block is w), and a pointwise conv's
// shifted view is the input sample itself.
func ConvKn2row(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvKn2row requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	spatial := os.H * os.W
	kArea := p.KernelH * p.KernelW
	block := p.OutChannels * s.C

	// Regroup OIHW weights into per-offset (r,q) OC x C blocks.
	sub := w
	if kArea > 1 {
		sub = make([]float32, kArea*block)
		for oc := 0; oc < p.OutChannels; oc++ {
			for c := 0; c < s.C; c++ {
				for off, v := range w[(oc*s.C+c)*kArea : (oc*s.C+c+1)*kArea] {
					sub[off*block+oc*s.C+c] = v
				}
			}
		}
	}

	var shift []float32
	if !isPointwise(p) {
		shift = make([]float32, s.C*spatial)
	}
	for n := 0; n < s.N; n++ {
		res := sample(out, n)
		fillBias(res, bias, spatial)
		src := sample(in, n)
		for r := 0; r < p.KernelH; r++ {
			for q := 0; q < p.KernelW; q++ {
				view := src
				if shift != nil {
					// Gather the shifted input view for offset (r,q).
					parFor(s.C, workers, func(c int) {
						plane := src[c*s.H*s.W : (c+1)*s.H*s.W]
						for y := 0; y < os.H; y++ {
							x := inputRow(plane, y*p.StrideH+r-p.PadH, s.H, s.W)
							gatherRow(shift[c*spatial+y*os.W:c*spatial+(y+1)*os.W], x, p.StrideW, q-p.PadW)
						}
					})
					view = shift
				}
				off := r*p.KernelW + q
				mul(p.OutChannels, spatial, s.C, sub[off*block:(off+1)*block], view, res)
			}
		}
	}
	return out
}
