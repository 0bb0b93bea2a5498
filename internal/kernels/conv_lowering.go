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
	im2colRows(in, n, p, oh, ow, workers, m)
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

// workspace returns scratch as a kernel's size-element workspace, or
// a fresh one when scratch is nil. Scratch may be longer than size and
// may hold anything: the kernels write every workspace element before
// reading it. Shorter scratch panics, as a wrong-sized dst does.
func workspace(scratch []float32, size int) []float32 {
	if scratch == nil {
		return make([]float32, size)
	}
	if len(scratch) < size {
		panic(fmt.Sprintf("kernels: scratch has %d elements, the kernel needs %d", len(scratch), size))
	}
	return scratch[:size]
}

// carve cuts the next n elements off the workspace *ws.
func carve(ws *[]float32, n int) []float32 {
	part := (*ws)[:n:n]
	*ws = (*ws)[n:]
	return part
}

// im2colRows writes the im2col lowering of sample n into m, the
// (C*KH*KW) x (oh*ow) matrix, splitting the oh output rows across
// workers goroutines. Each matrix row segment is gathered from one
// input row slice. Every entry is written (padding entries as zero), so
// a reused buffer needs no clearing.
func im2colRows(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int, m []float32) {
	s := in.Shape()
	cols := oh * ow
	src := sample(in, n)
	parFor(oh, workers, func(y int) {
		row := 0
		for c := 0; c < s.C; c++ {
			plane := src[c*s.H*s.W : (c+1)*s.H*s.W]
			for r := 0; r < p.KernelH; r++ {
				x := inputRow(plane, y*p.StrideH+r-p.PadH, s.H, s.W)
				for q := 0; q < p.KernelW; q++ {
					base := row*cols + y*ow
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

// Gemm selects the matrix multiply behind a lowering kernel. The zero
// value is gemm.Naive, the textbook loop of the ATLAS-like reference
// BLAS. Packed selects the packed, register-tiled gemm.ParallelCfg
// under Block (the tuned-BLAS stand-in), fanned out over the kernel's
// workers unless Block.Workers overrides them; the lowering then
// gathers its patch matrix straight into the GEMM's packed panels.
type Gemm struct {
	Packed bool
	Block  gemm.BlockConfig
}

// Naive is the reference-BLAS GEMM, Packed the tuned one with the
// default block config.
var (
	Naive  = Gemm{}
	Packed = Gemm{Packed: true}
)

// scratchLen returns the workspace an (m x k) by (k x n) multiply
// needs at the given fan-out.
func (g Gemm) scratchLen(m, n, k, workers int) int {
	if !g.Packed {
		return 0
	}
	return gemm.ScratchLen(m, n, k, workers, g.Block)
}

// mul computes C = A*B + C, working in scratch (scratchLen elements).
func (g Gemm) mul(m, n, k int, a, b, c []float32, workers int, scratch []float32) {
	if !g.Packed {
		gemm.Naive(m, n, k, a, b, c)
		return
	}
	gemm.ParallelCfg(m, n, k, a, b, c, workers, g.Block, scratch)
}

// im2colPacker gathers one sample's im2col matrix (see Im2col) straight
// into the packed GEMM's panel layout, so the matrix is never built:
// row (c, r, q), column y*ow+x is input pixel (y*StrideH+r-PadH,
// x*StrideW+q-PadW) of channel c, or zero in the padding — the value
// Im2col writes there, so the GEMM sees the same B bit for bit.
type im2colPacker struct {
	src  []float32 // the sample: C planes of h x w
	h, w int
	p    nn.ConvParams
	ow   int
}

// PackB implements gemm.Packer. It fills the block one row of B at a
// time: for each (c, r, q) it walks the output rows the block's
// columns cover, finds the input row and tap offset once per output
// row, and copies that row's taps into the nr-wide panels in chunks of
// at most nr. A chunk whose taps all land inside the input row is a
// strided copy; any other goes through gatherRow.
func (g *im2colPacker) PackB(p0, kcb, j0, ncb, nr int, dst []float32) {
	p := g.p
	kk := p.KernelH * p.KernelW
	next := kcb * nr // from one panel to the next
	c, r, q := p0/kk, p0%kk/p.KernelW, p0%p.KernelW
	for pp := 0; pp < kcb; pp++ {
		plane := g.src[c*g.h*g.w : (c+1)*g.h*g.w]
		for j := j0; j < j0+ncb; {
			y, x := j/g.ow, j%g.ow
			end := min(j0+ncb, j-x+g.ow)
			row := inputRow(plane, y*p.StrideH+r-p.PadH, g.h, g.w)
			off := x*p.StrideW + q - p.PadW
			base, jj := (j-j0)/nr*next+pp*nr, (j-j0)%nr
			for j < end {
				seg := dst[base+jj : base+min(nr, jj+end-j)]
				switch {
				case row == nil || off < 0 || off+(len(seg)-1)*p.StrideW >= g.w:
					gatherRow(seg, row, p.StrideW, off)
				case p.StrideW == 1:
					copy(seg, row[off:])
				default:
					for i := range seg {
						seg[i] = row[off+i*p.StrideW]
					}
				}
				j, off = j+len(seg), off+len(seg)*p.StrideW
				base, jj = base+next, 0
			}
		}
		if tail := ncb % nr; tail > 0 {
			last := (ncb-1)/nr*next + pp*nr
			clear(dst[last+tail : last+nr])
		}
		if q++; q == p.KernelW {
			if q, r = 0, r+1; r == p.KernelH {
				r, c = 0, c+1
			}
		}
	}
}

// packer returns the im2colPacker of sample n of in under p.
func packer(in *tensor.Tensor, n int, p nn.ConvParams, ow int) *im2colPacker {
	s := in.Shape()
	return &im2colPacker{src: sample(in, n), h: s.H, w: s.W, p: p, ow: ow}
}

// panelBlock returns the GEMM config a packed ConvIm2col runs under:
// a panel of output rows, with no NC of its own, becomes the GEMM's
// n-block width, which is what panel tiling amounts to once the
// lowering writes straight into the packed panels. Splitting n never
// changes a bit, so the panel still leaves the result unchanged.
func panelBlock(cfg gemm.BlockConfig, panel, oh, ow int) gemm.BlockConfig {
	if cfg.NC <= 0 && panel > 0 && panel < oh {
		cfg.NC = panel * ow
	}
	return cfg
}

// im2colParts returns the sizes of ConvIm2col's workspace: the
// gathered matrix the naive GEMM multiplies, and the packed GEMM's own
// workspace.
func im2colParts(s tensor.Shape, p nn.ConvParams, mul Gemm, workers, panel int) (cols, gemmLen int) {
	os := convOutShape(s, p.OutChannels, p)
	ckk := s.C * p.KernelH * p.KernelW
	if mul.Packed {
		cfg := panelBlock(mul.Block, panel, os.H, os.W)
		return 0, gemm.ScratchLen(p.OutChannels, os.H*os.W, ckk, workers, cfg)
	}
	if isPointwise(p) {
		return 0, 0
	}
	return ckk * os.H * os.W, 0
}

// ConvIm2colScratch returns the scratch elements ConvIm2col needs on
// input shape s with the same p, mul, workers and panel.
func ConvIm2colScratch(s tensor.Shape, p nn.ConvParams, mul Gemm, workers, panel int) int {
	cols, g := im2colParts(s, p, mul, workers, panel)
	return cols + g
}

// ConvIm2col computes a dense convolution as W (OC x CKK) times the
// im2col matrix (CKK x OHOW), using the selected GEMM, accumulating
// straight into the output sample. Results are bit-identical at any
// worker count.
//
// With the packed GEMM the matrix is never materialised: the GEMM packs
// B block by block and the lowering gathers each block straight from
// the input (im2colPacker). A pointwise conv's matrix is the input
// sample itself, which the GEMM reads in place. The panel, when it
// splits the output rows, becomes the GEMM's n-block width
// (panelBlock); splitting n leaves every output element's full-k
// reduction whole, so the result does not depend on panel.
//
// With the naive GEMM the matrix is gathered across column blocks
// (Im2col) and multiplied whole; panel does not apply. A pointwise
// conv hands the GEMM the input sample in place of a gathered copy.
//
// scratch is the kernel's workspace, as dst is its output: nil
// allocates it, otherwise it must hold ConvIm2colScratch elements.
func ConvIm2col(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers, panel int, scratch []float32) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvIm2col requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	ncols, ngemm := im2colParts(s, p, mul, workers, panel)
	ws := workspace(scratch, ncols+ngemm)
	cfg := panelBlock(mul.Block, panel, os.H, os.W)
	for n := 0; n < s.N; n++ {
		res := sample(out, n)
		fillBias(res, bias, spatial)
		switch {
		case !mul.Packed && isPointwise(p):
			gemm.Naive(p.OutChannels, spatial, ckk, w, sample(in, n), res)
		case !mul.Packed:
			im2colRows(in, n, p, os.H, os.W, workers, ws)
			gemm.Naive(p.OutChannels, spatial, ckk, w, ws, res)
		case isPointwise(p):
			gemm.ParallelCfg(p.OutChannels, spatial, ckk, w, sample(in, n), res, workers, cfg, ws)
		default:
			gemm.ParallelPacker(p.OutChannels, spatial, ckk, w, packer(in, n, p, os.W), res, workers, cfg, ws)
		}
	}
	return out
}

// im2rowParts returns the sizes of ConvIm2row's workspace: the
// transposed weights, the panel's patch rows and result, and the
// GEMM's own workspace.
func im2rowParts(s tensor.Shape, p nn.ConvParams, mul Gemm, workers, panel int) (wt, rows, pres, gemmLen int) {
	os := convOutShape(s, p.OutChannels, p)
	ckk := s.C * p.KernelH * p.KernelW
	if panel <= 0 || panel > os.H {
		panel = os.H
	}
	prows := panel * os.W
	return p.OutChannels * ckk, prows * ckk, prows * p.OutChannels, mul.scratchLen(prows, p.OutChannels, ckk, workers)
}

// ConvIm2rowScratch returns the scratch elements ConvIm2row needs on
// input shape s with the same p, mul, workers and panel.
func ConvIm2rowScratch(s tensor.Shape, p nn.ConvParams, mul Gemm, workers, panel int) int {
	wt, rows, pres, g := im2rowParts(s, p, mul, workers, panel)
	return wt + rows + pres + g
}

// ConvIm2row computes a dense convolution as the im2row matrix
// (OHOW x CKK) times W-transposed (CKK x OC), then transposes the
// result back into NCHW. The lowering is parallelized across patch-row
// blocks (Im2row); results are bit-identical at any worker count. The
// lowering and GEMM run over blocks of panel output rows (panel <= 0 or
// >= OH is one block), each block's (rows x OC) product transposed into
// the NCHW output. Blocks split the GEMM's m dimension only, so the
// result does not depend on panel. scratch is the kernel's workspace:
// nil allocates it, otherwise it must hold ConvIm2rowScratch elements.
func ConvIm2row(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers, panel int, scratch []float32) *tensor.Tensor {
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
	nwt, nrows, npres, ngemm := im2rowParts(s, p, mul, workers, panel)
	ws := workspace(scratch, nwt+nrows+npres+ngemm)
	wt, rows, pres := carve(&ws, nwt), carve(&ws, nrows), carve(&ws, npres)
	gemm.Transpose(p.OutChannels, ckk, w, wt)
	for n := 0; n < s.N; n++ {
		res := sample(out, n)
		for y0 := 0; y0 < os.H; y0 += panel {
			y1 := min(y0+panel, os.H)
			prows := (y1 - y0) * os.W
			im2rowRows(in, n, p, os.W, y0, y1, workers, rows)
			for i := 0; i < prows; i++ {
				copy(pres[i*p.OutChannels:(i+1)*p.OutChannels], bias)
			}
			mul.mul(prows, p.OutChannels, ckk, rows, wt, pres, workers, ws)
			for i := 0; i < prows; i++ {
				for oc := 0; oc < p.OutChannels; oc++ {
					res[oc*spatial+y0*os.W+i] = pres[i*p.OutChannels+oc]
				}
			}
		}
	}
	return out
}

// kn2rowParts returns the sizes of ConvKn2row's workspace: the
// regrouped weights, the naive GEMM's shifted view, and the packed
// GEMM's own workspace.
func kn2rowParts(s tensor.Shape, p nn.ConvParams, mul Gemm, workers int) (sub, shift, gemmLen int) {
	os := convOutShape(s, p.OutChannels, p)
	spatial := os.H * os.W
	if kArea := p.KernelH * p.KernelW; kArea > 1 {
		sub = kArea * p.OutChannels * s.C
	}
	if !mul.Packed && !isPointwise(p) {
		shift = s.C * spatial
	}
	return sub, shift, mul.scratchLen(p.OutChannels, spatial, s.C, workers)
}

// ConvKn2rowScratch returns the scratch elements ConvKn2row needs on
// input shape s with the same p, mul and workers.
func ConvKn2rowScratch(s tensor.Shape, p nn.ConvParams, mul Gemm, workers int) int {
	sub, shift, g := kn2rowParts(s, p, mul, workers)
	return sub + shift + g
}

// ConvKn2row computes a dense convolution as KH*KW rank-C GEMMs: for
// each kernel offset (r,q), the 1x1 sub-filter W[:, :, r, q] (OC x C)
// multiplies the correspondingly shifted input (C x OHOW) and
// accumulates into the output. The shifted view for (r,q) is the
// im2col matrix of a 1x1 conv with the padding moved by (r,q), which
// generalizes the textbook stride-1 kn2row to arbitrary stride and
// padding. The packed GEMM gathers that view straight into its panels
// (im2colPacker); the naive one multiplies a gathered copy, built in
// parallel across input channels (each channel writes an exclusive
// plane). Results are bit-identical at any worker count. The lowering
// is already a sequence of rank-C GEMMs, so it takes no panel. The
// GEMMs accumulate straight into the output sample. A 1x1 kernel needs
// no weight regroup (its one OC x C block is w), and a pointwise conv's
// shifted view is the input sample itself. scratch is the kernel's
// workspace: nil allocates it, otherwise it must hold
// ConvKn2rowScratch elements.
func ConvKn2row(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers int, scratch []float32) *tensor.Tensor {
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
	nsub, nshift, ngemm := kn2rowParts(s, p, mul, workers)
	ws := workspace(scratch, nsub+nshift+ngemm)

	// Regroup OIHW weights into per-offset (r,q) OC x C blocks.
	sub := w
	if nsub > 0 {
		sub = carve(&ws, nsub)
		for oc := 0; oc < p.OutChannels; oc++ {
			for c := 0; c < s.C; c++ {
				for off, v := range w[(oc*s.C+c)*kArea : (oc*s.C+c+1)*kArea] {
					sub[off*block+oc*s.C+c] = v
				}
			}
		}
	}
	shift := carve(&ws, nshift)
	for n := 0; n < s.N; n++ {
		res := sample(out, n)
		fillBias(res, bias, spatial)
		src := sample(in, n)
		for r := 0; r < p.KernelH; r++ {
			for q := 0; q < p.KernelW; q++ {
				a := sub[(r*p.KernelW+q)*block : (r*p.KernelW+q+1)*block]
				if isPointwise(p) {
					mul.mul(p.OutChannels, spatial, s.C, a, src, res, workers, ws)
					continue
				}
				view := p
				view.KernelH, view.KernelW, view.PadH, view.PadW = 1, 1, p.PadH-r, p.PadW-q
				if mul.Packed {
					gemm.ParallelPacker(p.OutChannels, spatial, s.C, a, packer(in, n, view, os.W), res, workers, mul.Block, ws)
					continue
				}
				parFor(s.C, workers, func(c int) {
					plane := src[c*s.H*s.W : (c+1)*s.H*s.W]
					for y := 0; y < os.H; y++ {
						x := inputRow(plane, y*view.StrideH-view.PadH, s.H, s.W)
						gatherRow(shift[c*spatial+y*os.W:c*spatial+(y+1)*os.W], x, view.StrideW, -view.PadW)
					}
				})
				gemm.Naive(p.OutChannels, spatial, s.C, a, shift, res)
			}
		}
	}
	return out
}
