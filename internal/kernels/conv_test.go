package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randConv builds a random input, weights and bias for the geometry.
func randConv(rng *rand.Rand, in tensor.Shape, p nn.ConvParams) (*tensor.Tensor, []float32, []float32) {
	x := tensor.New(in, tensor.NCHW)
	x.FillRandom(rng, 1)
	w := make([]float32, p.OutChannels*in.C*p.KernelH*p.KernelW)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	b := make([]float32, p.OutChannels)
	for i := range b {
		b[i] = rng.Float32()
	}
	return x, w, b
}

var convGeometries = []struct {
	name string
	in   tensor.Shape
	p    nn.ConvParams
}{
	{"3x3s1p1", tensor.Shape{N: 1, C: 3, H: 8, W: 8},
		nn.ConvParams{OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"5x5s1p0", tensor.Shape{N: 1, C: 2, H: 12, W: 10},
		nn.ConvParams{OutChannels: 6, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}},
	{"3x3s2p1", tensor.Shape{N: 1, C: 4, H: 9, W: 9},
		nn.ConvParams{OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
	{"1x1s1p0", tensor.Shape{N: 1, C: 7, H: 6, W: 5},
		nn.ConvParams{OutChannels: 3, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}},
	{"11x11s4p0", tensor.Shape{N: 1, C: 3, H: 35, W: 35},
		nn.ConvParams{OutChannels: 2, KernelH: 11, KernelW: 11, StrideH: 4, StrideW: 4}},
	{"batch2", tensor.Shape{N: 2, C: 3, H: 6, W: 6},
		nn.ConvParams{OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"asym", tensor.Shape{N: 1, C: 2, H: 7, W: 11},
		nn.ConvParams{OutChannels: 3, KernelH: 3, KernelW: 5, StrideH: 2, StrideW: 1, PadH: 1, PadW: 2}},
}

const convTol = 1e-3

// packed is the 1-worker packed GEMM (the tuned-BLAS stand-in) the
// lowering tests multiply with.
func packed(m, n, k int, a, b, c []float32) { gemm.Parallel(m, n, k, a, b, c, 1) }

func TestConvVariantsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	variants := []struct {
		name string
		run  func(in *tensor.Tensor, w, b []float32, p nn.ConvParams) *tensor.Tensor
	}{
		{"im2col-naive", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams) *tensor.Tensor {
			return ConvIm2col(nil, in, w, b, p, gemm.Naive, 1, 0)
		}},
		{"im2col-packed", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams) *tensor.Tensor {
			return ConvIm2col(nil, in, w, b, p, packed, 1, 0)
		}},
		{"im2row", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams) *tensor.Tensor {
			return ConvIm2row(nil, in, w, b, p, packed, 1, 0)
		}},
		{"kn2row", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams) *tensor.Tensor {
			return ConvKn2row(nil, in, w, b, p, packed, 1)
		}},
		{"nhwc", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams) *tensor.Tensor {
			return ConvDirectNHWC(nil, in.ToLayout(tensor.NHWC), w, b, p, 1).ToLayout(tensor.NCHW)
		}},
		{"sparse-dense", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams) *tensor.Tensor {
			csr := FromDense(p.OutChannels, in.Shape().C*p.KernelH*p.KernelW, w, 0)
			return ConvSparse(nil, in, csr, b, p)
		}},
	}
	for _, g := range convGeometries {
		x, w, b := randConv(rng, g.in, g.p)
		ref := ConvDirect(nil, x, w, b, g.p, 1)
		for _, v := range variants {
			got := v.run(x, w, b, g.p)
			if got.Layout() != tensor.NCHW {
				got = got.ToLayout(tensor.NCHW)
			}
			if !got.Shape().Equal(ref.Shape()) {
				t.Errorf("%s/%s: shape %v, want %v", g.name, v.name, got.Shape(), ref.Shape())
				continue
			}
			if d := tensor.MaxAbsDiff(ref, got); d > convTol {
				t.Errorf("%s/%s: max diff %g > %g", g.name, v.name, d, convTol)
			}
		}
	}
}

func TestWinogradMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, g := range convGeometries {
		if g.p.KernelH != 3 || g.p.KernelW != 3 || g.p.StrideH != 1 || g.p.StrideW != 1 {
			continue
		}
		x, w, b := randConv(rng, g.in, g.p)
		ref := ConvDirect(nil, x, w, b, g.p, 1)
		got := ConvWinograd(nil, x, w, b, g.p, 1)
		if d := tensor.MaxAbsDiff(ref, got); d > convTol {
			t.Errorf("%s: winograd max diff %g", g.name, d)
		}
	}
	// Odd output size exercises the partial-tile edge.
	in := tensor.Shape{N: 1, C: 2, H: 7, W: 9}
	p := nn.ConvParams{OutChannels: 3, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x, w, b := randConv(rng, in, p)
	if d := tensor.MaxAbsDiff(ConvDirect(nil, x, w, b, p, 1), ConvWinograd(nil, x, w, b, p, 1)); d > convTol {
		t.Errorf("odd-size winograd max diff %g", d)
	}
}

func TestWinogradRejectsBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("5x5 winograd should panic")
		}
	}()
	p := nn.ConvParams{OutChannels: 1, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}
	x, w, b := randConv(rand.New(rand.NewSource(1)), tensor.Shape{N: 1, C: 1, H: 8, W: 8}, p)
	ConvWinograd(nil, x, w, b, p, 1)
}

// Property: im2col and direct agree on random small geometries.
func TestConvLoweringProperty(t *testing.T) {
	f := func(ch, oc, k, hw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kernel := int(k%3) + 1
		size := kernel + int(hw%6)
		in := tensor.Shape{N: 1, C: int(ch%4) + 1, H: size, W: size}
		p := nn.ConvParams{
			OutChannels: int(oc%5) + 1,
			KernelH:     kernel, KernelW: kernel,
			StrideH: 1, StrideW: 1,
			PadH: int(k % 2), PadW: int(k % 2),
		}
		x, w, b := randConv(rng, in, p)
		ref := ConvDirect(nil, x, w, b, p, 1)
		got := ConvIm2col(nil, x, w, b, p, gemm.Naive, 1, 0)
		return tensor.MaxAbsDiff(ref, got) <= convTol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDepthwiseMatchesPerChannelDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := tensor.Shape{N: 1, C: 6, H: 9, W: 9}
	p := nn.ConvParams{OutChannels: 6, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	x := tensor.New(in, tensor.NCHW)
	x.FillRandom(rng, 1)
	w := make([]float32, in.C*9)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	b := make([]float32, in.C)
	for i := range b {
		b[i] = rng.Float32()
	}
	got := DepthwiseDirect(nil, x, w, b, p, 1)

	// Reference: depthwise == dense conv with a block-diagonal filter.
	dense := make([]float32, in.C*in.C*9)
	for c := 0; c < in.C; c++ {
		copy(dense[(c*in.C+c)*9:(c*in.C+c)*9+9], w[c*9:c*9+9])
	}
	ref := ConvDirect(nil, x, dense, b, p, 1)
	if d := tensor.MaxAbsDiff(ref, got); d > convTol {
		t.Errorf("depthwise max diff %g", d)
	}

	// NHWC variant agrees too.
	got2 := DepthwiseNHWC(nil, x.ToLayout(tensor.NHWC), w, b, p, 1)
	if d := tensor.MaxAbsDiff(ref, got2.ToLayout(tensor.NCHW)); d > convTol {
		t.Errorf("depthwise NHWC max diff %g", d)
	}
}

func TestConvDirectRejectsWrongLayout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NHWC input to ConvDirect should panic")
		}
	}()
	p := nn.ConvParams{OutChannels: 1, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	ConvDirect(nil, tensor.New(tensor.Shape{N: 1, C: 1, H: 2, W: 2}, tensor.NHWC), []float32{1}, []float32{0}, p, 1)
}

func TestConvWeightSizeChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short weights should panic")
		}
	}()
	p := nn.ConvParams{OutChannels: 2, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}
	ConvDirect(nil, tensor.New(tensor.Shape{N: 1, C: 1, H: 4, W: 4}, tensor.NCHW), []float32{1, 2}, []float32{0, 0}, p, 1)
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows, cols := 9, 14
	dense := make([]float32, rows*cols)
	for i := range dense {
		if rng.Float32() < 0.3 {
			dense[i] = rng.Float32()*2 - 1
		}
	}
	csr := FromDense(rows, cols, dense, 0)
	back := csr.ToDense()
	for i := range dense {
		if dense[i] != back[i] {
			t.Fatalf("round trip differs at %d: %v vs %v", i, dense[i], back[i])
		}
	}
	if csr.Density() > 0.5 {
		t.Errorf("density %v unexpectedly high", csr.Density())
	}
}

func TestCSRThresholdPrunes(t *testing.T) {
	dense := []float32{0.05, -0.5, 0.2, -0.01}
	csr := FromDense(2, 2, dense, 0.1)
	if csr.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", csr.NNZ())
	}
}

func TestFCSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := tensor.New(tensor.Shape{N: 1, C: 20, H: 1, W: 1}, tensor.NCHW)
	in.FillRandom(rng, 1)
	w := make([]float32, 8*20)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	b := make([]float32, 8)
	ref := FCGemv(nil, in, w, b, 8)
	got := FCSparse(nil, in, FromDense(8, 20, w, 0), b)
	if d := tensor.MaxAbsDiff(ref, got); d > convTol {
		t.Errorf("sparse FC max diff %g", d)
	}
}
