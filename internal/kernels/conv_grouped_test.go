package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// sliceChannels copies a channel range [from, to) of an NCHW tensor
// into a fresh tensor.
func sliceChannels(in *tensor.Tensor, from, to int) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(tensor.Shape{N: s.N, C: to - from, H: s.H, W: s.W}, tensor.NCHW)
	plane := s.H * s.W
	for n := 0; n < s.N; n++ {
		copy(out.Data()[n*(to-from)*plane:(n+1)*(to-from)*plane], in.Data()[(n*s.C+from)*plane:(n*s.C+to)*plane])
	}
	return out
}

// perGroupIm2col is a grouped conv computed one group at a time, the
// way BLAS libraries implement grouping without taking it into the
// lowering: each group's input channels are sliced into a tensor of
// their own, one ungrouped ConvIm2col on one worker runs over them, and
// its output is copied into the group's block of output channels. It is
// the reference the grouped ConvIm2col must reproduce bit for bit.
func perGroupIm2col(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm) *tensor.Tensor {
	s := in.Shape()
	g := p.GroupCount()
	inPerG, outPerG := s.C/g, p.OutChannels/g
	kArea := p.KernelH * p.KernelW
	sub := p
	sub.OutChannels, sub.Groups = outPerG, 1
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	block := outPerG * out.Shape().H * out.Shape().W
	for grp := 0; grp < g; grp++ {
		gin := sliceChannels(in, grp*inPerG, (grp+1)*inPerG)
		gw := w[grp*outPerG*inPerG*kArea : (grp+1)*outPerG*inPerG*kArea]
		gb := bias[grp*outPerG : (grp+1)*outPerG]
		gout := ConvIm2col(nil, gin, gw, gb, sub, mul, 1, 0, nil)
		for n := 0; n < s.N; n++ {
			copy(out.Data()[(n*g+grp)*block:(n*g+grp+1)*block], gout.Data()[n*block:(n+1)*block])
		}
	}
	return out
}

// groupedGeometries are grouped convs at the edges the grouped
// ConvIm2col must handle: two samples, a strided 5x5, a pointwise conv
// whose groups the GEMM reads in place, and an AlexNet-sized layer
// above the GEMM's flop floor, so that 4 workers split its columns.
var groupedGeometries = []struct {
	in tensor.Shape
	p  nn.ConvParams
}{
	{tensor.Shape{N: 2, C: 8, H: 13, W: 11}, nn.ConvParams{OutChannels: 12, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}},
	{tensor.Shape{N: 1, C: 6, H: 11, W: 11}, nn.ConvParams{OutChannels: 6, KernelH: 5, KernelW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2, Groups: 3}},
	{tensor.Shape{N: 1, C: 8, H: 7, W: 9}, nn.ConvParams{OutChannels: 8, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Groups: 4}},
	{tensor.Shape{N: 1, C: 32, H: 27, W: 27}, nn.ConvParams{OutChannels: 32, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, Groups: 2}},
}

// TestGroupedIm2colMatchesPerGroup pins the grouped ConvIm2col to the
// per-group reference bit for bit: under the naive GEMM and the packed
// one with every registered micro-kernel, with and without a panel and
// a KC-blocked config, at 1 and 4 workers, from NaN-filled scratch.
func TestGroupedIm2colMatchesPerGroup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(24))
	muls := []Gemm{Naive}
	for _, kn := range append([]string{""}, gemm.KernelVariants()...) {
		muls = append(muls, Gemm{Packed: true, Block: gemm.BlockConfig{Kernel: kn}},
			Gemm{Packed: true, Block: gemm.BlockConfig{Kernel: kn, KC: 8}})
	}
	for _, g := range groupedGeometries {
		x, w, b := randConv(rng, g.in, g.p)
		for _, mul := range muls {
			want := perGroupIm2col(x, w, b, g.p, mul)
			for _, panel := range []int{0, 2} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%v groups=%d %dx%d packed=%v %+v panel=%d workers=%d",
						g.in, g.p.Groups, g.p.KernelH, g.p.KernelW, mul.Packed, mul.Block, panel, workers)
					scratch := nanSlice(ConvIm2colScratch(g.in, g.p, mul, workers, panel))
					if got := ConvIm2col(nil, x, w, b, g.p, mul, workers, panel, scratch); !tensorsBitEqual(want, got) {
						t.Errorf("%s: differs from the per-group reference", name)
					}
				}
			}
		}
	}
}

// groupedRef computes a grouped conv as a dense conv with a
// block-diagonal filter — the ground truth for the grouped kernels.
func groupedRef(in *tensor.Tensor, w, bias []float32, p nn.ConvParams) *tensor.Tensor {
	s := in.Shape()
	g := p.GroupCount()
	inPerG, outPerG := s.C/g, p.OutChannels/g
	kArea := p.KernelH * p.KernelW
	dense := make([]float32, p.OutChannels*s.C*kArea)
	for grp := 0; grp < g; grp++ {
		for ocLocal := 0; ocLocal < outPerG; ocLocal++ {
			oc := grp*outPerG + ocLocal
			for cLocal := 0; cLocal < inPerG; cLocal++ {
				c := grp*inPerG + cLocal
				src := w[(oc*inPerG+cLocal)*kArea : (oc*inPerG+cLocal+1)*kArea]
				dst := dense[(oc*s.C+c)*kArea : (oc*s.C+c+1)*kArea]
				copy(dst, src)
			}
		}
	}
	dp := p
	dp.Groups = 1
	return ConvDirect(nil, in, dense, bias, dp, 1)
}

func TestGroupedConvMatchesBlockDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, g := range []int{2, 4} {
		in := tensor.New(tensor.Shape{N: 1, C: 8, H: 9, W: 9}, tensor.NCHW)
		in.FillRandom(rng, 1)
		p := nn.ConvParams{OutChannels: 12, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: g}
		w := make([]float32, 12*(8/g)*9)
		for i := range w {
			w[i] = rng.Float32()*2 - 1
		}
		bias := make([]float32, 12)
		for i := range bias {
			bias[i] = rng.Float32()
		}
		ref := groupedRef(in, w, bias, p)
		direct := ConvDirect(nil, in, w, bias, p, 1)
		if d := tensor.MaxAbsDiff(ref, direct); d > convTol {
			t.Errorf("groups=%d: direct max diff %g", g, d)
		}
		lowered := ConvIm2col(nil, in, w, bias, p, Packed, 1, 0, nil)
		if d := tensor.MaxAbsDiff(ref, lowered); d > convTol {
			t.Errorf("groups=%d: im2col max diff %g", g, d)
		}
	}
}

// TestGroupedConvReducesToUngrouped: a grouped ConvDirect is, bit for
// bit, one dense ConvDirect per group over that group's input
// channels, weights and biases.
func TestGroupedConvReducesToUngrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	in := tensor.New(tensor.Shape{N: 1, C: 4, H: 6, W: 6}, tensor.NCHW)
	in.FillRandom(rng, 1)
	p := nn.ConvParams{OutChannels: 6, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}
	w := make([]float32, 6*2*9)
	for i := range w {
		w[i] = rng.Float32()
	}
	bias := make([]float32, 6)
	got := ConvDirect(nil, in, w, bias, p, 1).Data()
	sub := p
	sub.OutChannels, sub.Groups = 3, 1
	for g := 0; g < 2; g++ {
		want := ConvDirect(nil, sliceChannels(in, 2*g, 2*g+2), w[g*3*2*9:(g+1)*3*2*9], bias[3*g:3*g+3], sub, 1).Data()
		block := got[g*len(want) : (g+1)*len(want)]
		for i := range want {
			if math.Float32bits(block[i]) != math.Float32bits(want[i]) {
				t.Fatalf("group %d element %d: grouped %v, dense %v", g, i, block[i], want[i])
			}
		}
	}
}

func TestGroupedConvStride(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := tensor.New(tensor.Shape{N: 1, C: 6, H: 11, W: 11}, tensor.NCHW)
	in.FillRandom(rng, 1)
	p := nn.ConvParams{OutChannels: 6, KernelH: 5, KernelW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2, Groups: 3}
	w := make([]float32, 6*2*25)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	bias := make([]float32, 6)
	ref := groupedRef(in, w, bias, p)
	if d := tensor.MaxAbsDiff(ref, ConvDirect(nil, in, w, bias, p, 1)); d > convTol {
		t.Errorf("strided grouped direct diff %g", d)
	}
	if d := tensor.MaxAbsDiff(ref, ConvIm2col(nil, in, w, bias, p, Naive, 1, 0, nil)); d > convTol {
		t.Errorf("strided grouped im2col diff %g", d)
	}
}

func TestGroupedConvBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("groups not dividing channels should panic")
		}
	}()
	in := tensor.New(tensor.Shape{N: 1, C: 5, H: 4, W: 4}, tensor.NCHW)
	p := nn.ConvParams{OutChannels: 4, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Groups: 2}
	ConvDirect(nil, in, make([]float32, 10), make([]float32, 4), p, 1)
}

func TestIsGrouped(t *testing.T) {
	if IsGrouped(nn.ConvParams{Groups: 1}) || IsGrouped(nn.ConvParams{}) {
		t.Error("groups <= 1 should not be grouped")
	}
	if !IsGrouped(nn.ConvParams{Groups: 2}) {
		t.Error("groups = 2 should be grouped")
	}
}
