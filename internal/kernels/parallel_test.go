package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tensorsBitEqual reports whether two tensors carry identical IEEE-754
// bits in the same layout.
func tensorsBitEqual(a, b *tensor.Tensor) bool {
	if a.Layout() != b.Layout() || a.Shape() != b.Shape() {
		return false
	}
	da, db := a.Data(), b.Data()
	for i := range da {
		if math.Float32bits(da[i]) != math.Float32bits(db[i]) {
			return false
		}
	}
	return true
}

var parWorkerCounts = []int{2, 3, 4, 8, 64}

// TestParKernelsBitIdenticalAcrossWorkers pins the tentpole contract
// for every parallel conv kernel: any worker count produces output
// byte-for-byte identical to the sequential (workers=1) path, on every
// geometry in the shared table.
func TestParKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	kernelsUnderTest := []struct {
		name string
		run  func(in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor
	}{
		{"direct", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor {
			return ConvDirect(nil, in, w, b, p, workers)
		}},
		{"winograd3x3", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor {
			if p.KernelH != 3 || p.KernelW != 3 || p.StrideH != 1 || p.StrideW != 1 {
				return nil
			}
			return ConvWinograd(nil, in, w, b, p, workers)
		}},
		{"fft", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor {
			if p.StrideH != 1 || p.StrideW != 1 {
				return nil
			}
			return ConvFFT(nil, in, w, b, p, workers)
		}},
		{"im2col", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor {
			return ConvIm2col(nil, in, w, b, p, packed, workers, 0)
		}},
		{"im2row", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor {
			return ConvIm2row(nil, in, w, b, p, packed, workers, 0)
		}},
		{"kn2row", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor {
			return ConvKn2row(nil, in, w, b, p, packed, workers)
		}},
		{"nhwc", func(in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor {
			return ConvDirectNHWC(nil, in.ToLayout(tensor.NHWC), w, b, p, workers)
		}},
	}
	for _, g := range convGeometries {
		x, w, b := randConv(rng, g.in, g.p)
		for _, k := range kernelsUnderTest {
			seq := k.run(x, w, b, g.p, 1)
			if seq == nil {
				continue // kernel does not support this geometry
			}
			for _, workers := range parWorkerCounts {
				got := k.run(x, w, b, g.p, workers)
				if !tensorsBitEqual(seq, got) {
					t.Errorf("%s/%s workers=%d: output not bit-identical to sequential", g.name, k.name, workers)
				}
			}
		}
	}
}

// TestParKernelsMatchSequentialExports checks that a worker count below
// one runs the sequential path, bit-identical to workers=1.
func TestParKernelsMatchSequentialExports(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := convGeometries[0]
	x, w, b := randConv(rng, g.in, g.p)
	for _, k := range []struct {
		name string
		run  func(dst, in *tensor.Tensor, w, b []float32, p nn.ConvParams, workers int) *tensor.Tensor
	}{
		{"ConvDirect", ConvDirect},
		{"ConvWinograd", ConvWinograd},
		{"ConvFFT", ConvFFT},
		{"ConvGroupedDirect", ConvGroupedDirect},
	} {
		seq := k.run(nil, x, w, b, g.p, 1)
		for _, workers := range []int{0, -1} {
			if !tensorsBitEqual(seq, k.run(nil, x, w, b, g.p, workers)) {
				t.Errorf("%s workers=%d != workers=1", k.name, workers)
			}
		}
	}
}

// TestDepthwiseParBitIdentical covers the depth-wise kernels, which
// need channel-count == in.C weights rather than the dense layout.
func TestDepthwiseParBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	in := tensor.Shape{N: 2, C: 5, H: 9, W: 7}
	p := nn.ConvParams{OutChannels: 5, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := tensor.New(in, tensor.NCHW)
	x.FillRandom(rng, 1)
	w := make([]float32, in.C*p.KernelH*p.KernelW)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	b := make([]float32, in.C)
	for i := range b {
		b[i] = rng.Float32()
	}
	seq := DepthwiseDirect(nil, x, w, b, p, 1)
	xh := x.ToLayout(tensor.NHWC)
	seqH := DepthwiseNHWC(nil, xh, w, b, p, 1)
	for _, workers := range parWorkerCounts {
		if !tensorsBitEqual(seq, DepthwiseDirect(nil, x, w, b, p, workers)) {
			t.Errorf("DepthwiseDirect workers=%d: not bit-identical", workers)
		}
		if !tensorsBitEqual(seqH, DepthwiseNHWC(nil, xh, w, b, p, workers)) {
			t.Errorf("DepthwiseNHWC workers=%d: not bit-identical", workers)
		}
	}
}

// TestGroupedParBitIdentical covers the grouped kernels (AlexNet-style
// two-group layers).
func TestGroupedParBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	in := tensor.Shape{N: 1, C: 6, H: 8, W: 8}
	p := nn.ConvParams{OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}
	x := tensor.New(in, tensor.NCHW)
	x.FillRandom(rng, 1)
	w := make([]float32, p.OutChannels*(in.C/2)*9)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	b := make([]float32, p.OutChannels)
	for i := range b {
		b[i] = rng.Float32()
	}
	seqD := ConvGroupedDirect(nil, x, w, b, p, 1)
	seqI := ConvGroupedIm2col(nil, x, w, b, p, packed, 1)
	for _, workers := range parWorkerCounts {
		if !tensorsBitEqual(seqD, ConvGroupedDirect(nil, x, w, b, p, workers)) {
			t.Errorf("ConvGroupedDirect workers=%d: not bit-identical", workers)
		}
		if !tensorsBitEqual(seqI, ConvGroupedIm2col(nil, x, w, b, p, packed, workers)) {
			t.Errorf("ConvGroupedIm2col workers=%d: not bit-identical", workers)
		}
	}
}

// TestConvPackedGemmMatchesDirect extends the kernels-match-direct
// property to the packed GEMM backend feeding the lowering kernels.
func TestConvPackedGemmMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, g := range convGeometries {
		x, w, b := randConv(rng, g.in, g.p)
		ref := ConvDirect(nil, x, w, b, g.p, 1)
		for _, workers := range []int{1, 4} {
			got := ConvIm2col(nil, x, w, b, g.p, func(m, n, k int, a, bb, c []float32) {
				gemm.Parallel(m, n, k, a, bb, c, workers)
			}, workers, 0)
			rd, gd := ref.Data(), got.Data()
			for i := range rd {
				if d := math.Abs(float64(rd[i] - gd[i])); d > convTol {
					t.Fatalf("%s workers=%d: im2col+packed differs from direct by %g at %d", g.name, workers, d, i)
				}
			}
		}
	}
}
