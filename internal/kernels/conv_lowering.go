package kernels

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

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

// im2rowRows writes the im2row lowering of output rows [y0, y1) into
// m: a ((y1-y0)*ow) x (C*KH*KW) matrix, patch y*ow+x at row
// (y-y0)*ow+x. Each patch's KW-wide kernel rows are gathered from input
// row slices. Every entry is written, so the buffer reuses cleanly.
// A pointwise conv's whole matrix is the transpose of the input sample
// (C x H*W), built by one gemm.Transpose; a panel of its rows is a
// column block of the sample, which Transpose does not take, so it is
// gathered like any other.
func im2rowRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	src := sample(in, n)
	if isPointwise(p) && y0 == 0 && y1 == s.H {
		gemm.Transpose(s.C, s.H*s.W, src, m)
		return
	}
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

// fillBias sets the m x n matrix dst to the values bias starts it
// from: row i to bias.V[i], or every row to bias.V when the bias is per
// column. It is the accumulator's start where the multiply takes none,
// gemm.Naive and the sparse SpMM; the packed GEMM starts its tiles from
// the bias itself.
func fillBias(dst []float32, m, n int, bias gemm.Bias) {
	for i := 0; i < m; i++ {
		row := dst[i*n : (i+1)*n]
		if bias.PerColumn {
			copy(row, bias.V)
			continue
		}
		for j := range row {
			row[j] = bias.V[i]
		}
	}
}

// Gemm selects the matrix multiply behind a lowering kernel. The zero
// value is gemm.Naive, the textbook loop of the ATLAS-like reference
// BLAS. Packed selects the packed, register-tiled gemm.ParallelCfg
// under Block (the tuned-BLAS stand-in), fanned out over the kernel's
// workers. Both multiply the same B, which a lowering hands over read
// in place or through its one gather, im2colPacker (see mul).
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
// needs at the given fan-out: the packed GEMM's own, or, when B is
// gathered, the naive GEMM's (k x n) copy of it.
func (g Gemm) scratchLen(m, n, k, workers int, gathered bool) int {
	switch {
	case g.Packed:
		return gemm.ScratchLen(m, n, k, workers, g.Block)
	case gathered:
		return k * n
	}
	return 0
}

// mul computes C = A*B + C, or C = bias + A*B under a non-zero bias
// (see gemm.Bias), working in scratch (scratchLen elements, gathered
// when pk is non-nil). With pk nil, B is the row-major (k x n) b, read
// in place; otherwise B is the im2col matrix pk gathers from the
// channels b. The packed GEMM has pk gather straight into its panels;
// the naive one has pk fill scratch with B whole (gatherB) and
// multiplies that, so both read the same B bit for bit.
func (g Gemm) mul(m, n, k int, a, b []float32, pk *im2colPacker, c []float32, bias gemm.Bias, workers int, scratch []float32) {
	if pk != nil {
		pk.src = b
	}
	switch {
	case g.Packed && pk != nil:
		gemm.ParallelPacker(m, n, k, a, pk, c, bias, workers, g.Block, scratch)
	case g.Packed:
		gemm.ParallelCfg(m, n, k, a, b, c, bias, workers, g.Block, scratch)
	default:
		if pk != nil {
			b = scratch[:k*n]
			gatherB(pk, k, n, workers, b)
		}
		if bias.V != nil {
			fillBias(c, m, n, bias)
		}
		gemm.Naive(m, n, k, a, b, c)
	}
}

// gatherB has pk write the row-major (k x n) matrix it describes into
// b. One n-wide panel of k rows is that matrix, so pk fills it with
// nr = n, each worker packing its own range of rows. One worker packs
// inline, with no closure to allocate.
func gatherB(pk *im2colPacker, k, n, workers int, b []float32) {
	if workers <= 1 {
		pk.PackB(0, k, 0, n, n, b)
		return
	}
	parChunks(k, workers, func(lo, hi int) { pk.PackB(lo, hi-lo, 0, n, n, b[lo*n:hi*n]) })
}

// im2colPacker is the one im2col gather: it describes the
// (C*KH*KW) x (OH*OW) patch matrix of one sample or one channel group
// of it, the classic Caffe/BLAS lowering, and packs any block of it
// into the packed GEMM's panel layout. Row (c, r, q), column y*ow+x is
// input pixel (y*StrideH+r-PadH, x*StrideW+q-PadW) of channel c, or
// zero in the padding. The packed GEMM takes it block by block, so the
// matrix is never built; gatherB builds it whole, as one n-wide panel,
// for the naive GEMM and the sparse SpMM.
type im2colPacker struct {
	src  []float32 // the channels: planes of h x w
	h, w int
	p    nn.ConvParams
	ow   int
}

// PackB implements gemm.Packer. It fills the block one row of B at a
// time: for each (c, r, q) it walks the output rows the block's
// columns cover, finds the input row and tap offset once per output
// row, and copies that row's taps into the nr-wide panels in chunks of
// at most nr. A chunk whose taps all land inside the input row is a
// strided copy; any other goes through gatherRow. At stride 2 the first
// such chunk instead starts one Gather2 row (gemm.Rows) over the rest of
// the output row's in-bounds taps, across as many panels as they span.
func (g *im2colPacker) PackB(p0, kcb, j0, ncb, nr int, dst []float32) {
	p := g.p
	kk := p.KernelH * p.KernelW
	next := kcb * nr // from one panel to the next
	gather2 := gemm.ActiveRows().Gather2
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
				case p.StrideW == 2:
					n := min(end-j, (g.w-off+1)/2) // taps up to the row's end
					gather2(dst[base:], jj, nr, next, row[off:], n)
					j, off = j+n, off+2*n
					base, jj = (j-j0)/nr*next+pp*nr, (j-j0)%nr
					continue
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

// ConvIm2colScratch returns the scratch elements ConvIm2col needs on
// input shape s with the same p, mul, workers and panel: one channel
// group's multiply, which every group reuses in turn.
func ConvIm2colScratch(s tensor.Shape, p nn.ConvParams, mul Gemm, workers, panel int) int {
	os := convOutShape(s, p.OutChannels, p)
	g := p.GroupCount()
	mul.Block = panelBlock(mul.Block, panel, os.H, os.W)
	return mul.scratchLen(p.OutChannels/g, os.H*os.W, s.C/g*p.KernelH*p.KernelW, workers, !isPointwise(p))
}

// ConvIm2col computes a convolution as W (OC x CKK) times the im2col
// matrix (CKK x OHOW), using the selected GEMM, starting from the bias
// of each output channel (one per GEMM row) and accumulating straight
// into the output sample. Results are bit-identical at any worker
// count.
//
// A grouped conv (AlexNet's conv2/4/5) runs one lowering and one GEMM
// per channel group, as BLAS libraries implement grouping: group g's
// OC/groups weight rows multiply the im2col matrix of its C/groups
// input channels, read in place, into its own block of output rows.
// The groups run one after another and reuse one workspace.
//
// A pointwise conv's matrix is the input channels themselves, which
// either GEMM reads in place; any other is gathered by im2colPacker,
// straight into the packed GEMM's panels or whole for the naive one
// (see Gemm.mul). The panel, when it splits the output rows, becomes
// the packed GEMM's n-block width (panelBlock); splitting n leaves
// every output element's full-k reduction whole, so the result does
// not depend on panel. The naive GEMM takes no blocks, so panel does
// not apply to it.
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
	g := p.GroupCount()
	cin, cout := s.C/g, p.OutChannels/g
	ckk := cin * p.KernelH * p.KernelW
	plane, spatial := s.H*s.W, os.H*os.W
	ws := workspace(scratch, ConvIm2colScratch(s, p, mul, workers, panel))
	mul.Block = panelBlock(mul.Block, panel, os.H, os.W)
	var pk *im2colPacker // nil: a pointwise conv's matrix is its input
	if !isPointwise(p) {
		pk = &im2colPacker{h: s.H, w: s.W, p: p, ow: os.W}
	}
	for n := 0; n < s.N; n++ {
		for grp := 0; grp < g; grp++ {
			src := sample(in, n)[grp*cin*plane : (grp+1)*cin*plane]
			res := sample(out, n)[grp*cout*spatial : (grp+1)*cout*spatial]
			a := w[grp*cout*ckk : (grp+1)*cout*ckk]
			start := gemm.Bias{V: bias[grp*cout : (grp+1)*cout]}
			mul.mul(cout, spatial, ckk, a, src, pk, res, start, workers, ws)
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
	return p.OutChannels * ckk, prows * ckk, prows * p.OutChannels, mul.scratchLen(prows, p.OutChannels, ckk, workers, false)
}

// ConvIm2rowScratch returns the scratch elements ConvIm2row needs on
// input shape s with the same p, mul, workers and panel.
func ConvIm2rowScratch(s tensor.Shape, p nn.ConvParams, mul Gemm, workers, panel int) int {
	wt, rows, pres, g := im2rowParts(s, p, mul, workers, panel)
	return wt + rows + pres + g
}

// ConvIm2row computes a dense convolution as the im2row matrix
// (OHOW x CKK) times W-transposed (CKK x OC), starting from the bias of
// each output channel (one per GEMM column), then transposes the
// result back into NCHW. The lowering is parallelized across patch-row
// blocks (im2rowRows); results are bit-identical at any worker count. The
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
			mul.mul(prows, p.OutChannels, ckk, rows, wt, nil, pres, gemm.Bias{V: bias, PerColumn: true}, workers, ws)
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
// regrouped weights and the multiply's own workspace, which every
// offset reuses in turn.
func kn2rowParts(s tensor.Shape, p nn.ConvParams, mul Gemm, workers int) (sub, gemmLen int) {
	os := convOutShape(s, p.OutChannels, p)
	if kArea := p.KernelH * p.KernelW; kArea > 1 {
		sub = kArea * p.OutChannels * s.C
	}
	return sub, mul.scratchLen(p.OutChannels, os.H*os.W, s.C, workers, !isPointwise(p))
}

// ConvKn2rowScratch returns the scratch elements ConvKn2row needs on
// input shape s with the same p, mul and workers.
func ConvKn2rowScratch(s tensor.Shape, p nn.ConvParams, mul Gemm, workers int) int {
	sub, g := kn2rowParts(s, p, mul, workers)
	return sub + g
}

// ConvKn2row computes a dense convolution as KH*KW rank-C GEMMs: for
// each kernel offset (r,q), the 1x1 sub-filter W[:, :, r, q] (OC x C)
// multiplies the correspondingly shifted input (C x OHOW) and
// accumulates into the output. The shifted view for (r,q) is the
// im2col matrix of a 1x1 conv with the padding moved by (r,q), which
// generalizes the textbook stride-1 kn2row to arbitrary stride and
// padding. One im2colPacker, pointed at each offset's view in turn,
// gathers it for either GEMM (see Gemm.mul). Results are bit-identical
// at any worker count. The lowering is already a sequence of rank-C
// GEMMs, so it takes no panel. The GEMMs accumulate straight into the
// output sample, the first one starting from the bias of each output
// channel. A 1x1 kernel needs no weight regroup (its one OC x C block
// is w), and a pointwise conv's shifted view is the input sample
// itself, read in place. scratch is the kernel's workspace: nil
// allocates it, otherwise it must hold ConvKn2rowScratch elements.
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
	nsub, ngemm := kn2rowParts(s, p, mul, workers)
	ws := workspace(scratch, nsub+ngemm)

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
	var pk *im2colPacker // nil: a pointwise conv's one view is its input
	if !isPointwise(p) {
		pk = &im2colPacker{h: s.H, w: s.W, p: p, ow: os.W}
		pk.p.KernelH, pk.p.KernelW = 1, 1
	}
	for n := 0; n < s.N; n++ {
		res, src := sample(out, n), sample(in, n)
		for r := 0; r < p.KernelH; r++ {
			for q := 0; q < p.KernelW; q++ {
				a := sub[(r*p.KernelW+q)*block : (r*p.KernelW+q+1)*block]
				var start gemm.Bias // later offsets add into res
				if r == 0 && q == 0 {
					start.V = bias
				}
				if pk != nil {
					pk.p.PadH, pk.p.PadW = p.PadH-r, p.PadW-q
				}
				mul.mul(p.OutChannels, spatial, s.C, a, src, pk, res, start, workers, ws)
			}
		}
	}
	return out
}
