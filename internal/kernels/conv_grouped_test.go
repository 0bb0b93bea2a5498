package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

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
		lowered := ConvGroupedIm2col(nil, in, w, bias, p, Packed, 1)
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
	if d := tensor.MaxAbsDiff(ref, ConvGroupedIm2col(nil, in, w, bias, p, Naive, 1)); d > convTol {
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
