package kernels

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Grouped convolution — AlexNet's conv2/4/5 split channels into two
// independent halves (a two-GPU training artifact the deployed model
// keeps). Weights are OIHW with I = C/groups; output channel block g
// sees only input channel block g.

// checkGroupedArgs validates a grouped convolution's geometry.
func checkGroupedArgs(in tensor.Shape, w, bias []float32, p nn.ConvParams) error {
	g := p.GroupCount()
	if in.C%g != 0 || p.OutChannels%g != 0 {
		return fmt.Errorf("kernels: groups %d do not divide channels %d->%d", g, in.C, p.OutChannels)
	}
	need := p.OutChannels * (in.C / g) * p.KernelH * p.KernelW
	if len(w) != need {
		return fmt.Errorf("kernels: grouped conv weights have %d elements, need %d", len(w), need)
	}
	if len(bias) != p.OutChannels {
		return fmt.Errorf("kernels: grouped conv bias has %d elements, need %d", len(bias), p.OutChannels)
	}
	return nil
}

// ConvGroupedDirect computes a grouped convolution with the direct
// algorithm over an NCHW input. The (sample, output-channel) planes are
// partitioned across workers goroutines (each output channel reads only
// its own group's input block); results are bit-identical at any worker
// count.
func ConvGroupedDirect(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvGroupedDirect requires NCHW input")
	}
	s := in.Shape()
	if err := checkGroupedArgs(s, w, bias, p); err != nil {
		panic(err.Error())
	}
	g := p.GroupCount()
	if g == 1 {
		return ConvDirect(dst, in, w, bias, p, workers)
	}
	inPerG, outPerG := s.C/g, p.OutChannels/g
	kArea := p.KernelH * p.KernelW
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	parFor(s.N*p.OutChannels, workers, func(j int) {
		n, oc := j/p.OutChannels, j%p.OutChannels
		grp := oc / outPerG
		wBase := oc * inPerG * kArea
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				sum := bias[oc]
				for cLocal := 0; cLocal < inPerG; cLocal++ {
					c := grp*inPerG + cLocal
					for r := 0; r < p.KernelH; r++ {
						ih := oh*p.StrideH + r - p.PadH
						if ih < 0 || ih >= s.H {
							continue
						}
						for q := 0; q < p.KernelW; q++ {
							iw := ow*p.StrideW + q - p.PadW
							if iw < 0 || iw >= s.W {
								continue
							}
							sum += float32(w[wBase+cLocal*kArea+r*p.KernelW+q] * in.At(n, c, ih, iw))
						}
					}
				}
				out.Set(n, oc, oh, ow, sum)
			}
		}
	})
	return out
}

// sliceChannels copies a channel range [from, to) of an NCHW tensor
// into a fresh tensor.
func sliceChannels(in *tensor.Tensor, from, to int) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(tensor.Shape{N: s.N, C: to - from, H: s.H, W: s.W}, tensor.NCHW)
	for n := 0; n < s.N; n++ {
		for c := from; c < to; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					out.Set(n, c-from, h, w, in.At(n, c, h, w))
				}
			}
		}
	}
	return out
}

// ConvGroupedIm2col computes a grouped convolution as one im2col GEMM
// per group (how BLAS libraries implement grouping), with the groups
// partitioned across workers goroutines. Each group slices its own
// input channels, runs its own sequential im2col GEMM, and writes an
// exclusive output channel block, so results are bit-identical at any
// worker count.
func ConvGroupedIm2col(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvGroupedIm2col requires NCHW input")
	}
	s := in.Shape()
	if err := checkGroupedArgs(s, w, bias, p); err != nil {
		panic(err.Error())
	}
	g := p.GroupCount()
	if g == 1 {
		return ConvIm2col(dst, in, w, bias, p, mul, workers, 0, nil)
	}
	inPerG, outPerG := s.C/g, p.OutChannels/g
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	spatial := os.H * os.W
	kArea := p.KernelH * p.KernelW
	sub := p
	sub.OutChannels = outPerG
	sub.Groups = 1
	parFor(g, workers, func(grp int) {
		gin := sliceChannels(in, grp*inPerG, (grp+1)*inPerG)
		gw := w[grp*outPerG*inPerG*kArea : (grp+1)*outPerG*inPerG*kArea]
		gb := bias[grp*outPerG : (grp+1)*outPerG]
		gout := ConvIm2col(nil, gin, gw, gb, sub, mul, 1, 0, nil)
		for n := 0; n < s.N; n++ {
			src := gout.Data()[n*outPerG*spatial:]
			copy(out.Data()[n*os.C*spatial+grp*outPerG*spatial:][:outPerG*spatial], src[:outPerG*spatial])
		}
	})
	return out
}

// IsGrouped reports whether a conv layer uses more than one group.
func IsGrouped(p nn.ConvParams) bool { return p.GroupCount() > 1 }
