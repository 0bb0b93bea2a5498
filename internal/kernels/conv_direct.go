// Package kernels implements the actual float32 compute primitives the
// inference engine executes: direct convolution (the reference every
// other variant is tested against), the BLAS-style lowerings (im2col,
// im2row, kn2row), Winograd F(2x2,3x3), depth-wise and sparse
// convolution, fully-connected kernels, and the element-wise / pooling
// / normalization operators. NCHW is the native layout; a handful of
// NHWC-native kernels exist so the engine has genuinely
// layout-incompatible primitives to choose between.
//
// Every kernel takes its output tensor as its first argument, dst, and
// returns it; a nil dst allocates a fresh one. A kernel overwrites every
// element of dst, so a reused buffer needs no clearing. Only ReLU,
// BatchNorm and EltwiseAdd (as its first operand) accept dst == in.
//
// The kernels that lower a conv to a matrix product (ConvIm2col,
// ConvIm2row, ConvKn2row, ConvSparse) also take their workspace the
// way they take dst, as a last scratch argument: nil allocates it,
// otherwise it must hold as many elements as the kernel's …Scratch
// function reports, and may hold anything — the kernel writes every
// element before reading it. A planned caller gives every call the
// same scratch and so allocates nothing per call.
package kernels

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// convOutShape computes the output shape of a convolution-like op.
func convOutShape(in tensor.Shape, outC int, p nn.ConvParams) tensor.Shape {
	oh := (in.H+2*p.PadH-p.KernelH)/p.StrideH + 1
	ow := (in.W+2*p.PadW-p.KernelW)/p.StrideW + 1
	return tensor.Shape{N: in.N, C: outC, H: oh, W: ow}
}

// validSpan returns the range [lo, hi) of positions i in [0, n) whose
// input coordinate i*stride + off lies inside [0, size): the output
// pixels (or kernel taps) that read real input rather than padding.
// Kernels hoist it out of their inner loops so the per-tap padding
// test disappears.
func validSpan(n, stride, off, size int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	hi = n
	if last := size - 1 - off; last < 0 {
		hi = 0
	} else if h := last/stride + 1; h < hi {
		hi = h
	}
	return min(lo, hi), hi
}

// output returns dst as the kernel's output tensor of shape s in
// layout l, or a fresh one when dst is nil.
func output(dst *tensor.Tensor, s tensor.Shape, l tensor.Layout) *tensor.Tensor {
	if dst == nil {
		return tensor.New(s, l)
	}
	if !dst.Shape().Equal(s) || dst.Layout() != l {
		panic(fmt.Sprintf("kernels: destination is %v %v, the output is %v %v", dst.Shape(), dst.Layout(), s, l))
	}
	return dst
}

// checkConvArgs validates weight/bias lengths for a dense convolution.
func checkConvArgs(in tensor.Shape, w, bias []float32, p nn.ConvParams) {
	need := p.OutChannels * in.C * p.KernelH * p.KernelW
	if len(w) != need {
		panic(fmt.Sprintf("kernels: conv weights have %d elements, need %d", len(w), need))
	}
	if len(bias) != p.OutChannels {
		panic(fmt.Sprintf("kernels: conv bias has %d elements, need %d", len(bias), p.OutChannels))
	}
}

// ConvDirect computes a dense 2-D convolution over an NCHW input with
// OIHW weights, the dependency-free "Vanilla" implementation and the
// numerical reference for every other conv kernel. The (sample,
// output-channel) planes are partitioned across at most workers
// goroutines; each plane is computed by exactly one iteration with the
// sequential code, so the output is bit-identical at any worker count.
func ConvDirect(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvDirect requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	kArea := p.KernelH * p.KernelW
	parFor(s.N*os.C, workers, func(j int) {
		n, oc := j/os.C, j%os.C
		wBase := oc * s.C * kArea
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				sum := bias[oc]
				for c := 0; c < s.C; c++ {
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
							sum += float32(w[wBase+c*kArea+r*p.KernelW+q] * in.At(n, c, ih, iw))
						}
					}
				}
				out.Set(n, oc, oh, ow, sum)
			}
		}
	})
	return out
}

// ConvDirectNHWC is ConvDirect for NHWC input, producing NHWC output.
// It exists so the primitive registry has a genuinely NHWC-native
// convolution (the NNPACK-style family), making layout conversions a
// real cost rather than bookkeeping. The (sample, output-row) slabs are
// partitioned across workers goroutines; output rows are contiguous
// exclusive slabs in NHWC, so results are bit-identical at any worker
// count.
func ConvDirectNHWC(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NHWC {
		panic("kernels: ConvDirectNHWC requires NHWC input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NHWC)
	os := out.Shape()
	kArea := p.KernelH * p.KernelW
	parFor(s.N*os.H, workers, func(j int) {
		n, oh := j/os.H, j%os.H
		for ow := 0; ow < os.W; ow++ {
			for oc := 0; oc < os.C; oc++ {
				sum := bias[oc]
				wBase := oc * s.C * kArea
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
						for c := 0; c < s.C; c++ {
							sum += float32(w[wBase+c*kArea+r*p.KernelW+q] * in.At(n, c, ih, iw))
						}
					}
				}
				out.Set(n, oc, oh, ow, sum)
			}
		}
	})
	return out
}

// DepthwiseDirect computes a depth-wise convolution (one KxK filter per
// channel) over an NCHW input. Weights are C*KH*KW, bias is C. The
// (sample, channel) planes are partitioned across workers goroutines;
// planes are exclusive, so results are bit-identical at any worker
// count.
//
// A 3x3 window with padding 1 at stride 1 or 2, MobileNet's shape, runs
// each plane as one call of the dispatched Depthwise3x3 row
// (gemm.Rows). Any other window reads each plane as a slice, with the
// valid kernel rows computed once per output row and the valid columns
// once per output pixel, so padding costs no per-tap test. Both paths
// add the valid taps to the bias in r-major, q-minor order, the order
// of the textbook loop.
func DepthwiseDirect(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	return depthwiseDirect(gemm.ActiveRows(), dst, in, w, bias, p, workers)
}

func depthwiseDirect(rows *gemm.Rows, dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: DepthwiseDirect requires NCHW input")
	}
	s := in.Shape()
	kArea := p.KernelH * p.KernelW
	if len(w) != s.C*kArea {
		panic(fmt.Sprintf("kernels: depthwise weights have %d elements, need %d", len(w), s.C*kArea))
	}
	if len(bias) != s.C {
		panic(fmt.Sprintf("kernels: depthwise bias has %d elements, need %d", len(bias), s.C))
	}
	out := output(dst, convOutShape(s, s.C, p), tensor.NCHW)
	os := out.Shape()
	plane, oplane := s.H*s.W, os.H*os.W
	row3x3 := p.KernelH == 3 && p.KernelW == 3 && p.PadH == 1 && p.PadW == 1 &&
		p.StrideH == p.StrideW && (p.StrideH == 1 || p.StrideH == 2)
	parFor(s.N*s.C, workers, func(j int) {
		c := j % s.C
		src := in.Data()[j*plane : (j+1)*plane]
		res := out.Data()[j*oplane : (j+1)*oplane]
		k := w[c*kArea : (c+1)*kArea]
		if row3x3 {
			rows.Depthwise3x3(res, src, s.H, s.W, p.StrideH, k, bias[c])
			return
		}
		for oh := 0; oh < os.H; oh++ {
			ih0 := oh*p.StrideH - p.PadH
			r0, r1 := validSpan(p.KernelH, 1, ih0, s.H)
			row := res[oh*os.W : (oh+1)*os.W]
			for ow := range row {
				iw0 := ow*p.StrideW - p.PadW
				q0, q1 := validSpan(p.KernelW, 1, iw0, s.W)
				sum := bias[c]
				for r := r0; r < r1; r++ {
					x, kr := (ih0+r)*s.W+iw0, r*p.KernelW
					for q := q0; q < q1; q++ {
						sum += float32(k[kr+q] * src[x+q])
					}
				}
				row[ow] = sum
			}
		}
	})
	return out
}

// DepthwiseNHWC is DepthwiseDirect for NHWC input/output (the
// ArmCL-style specialized depth-wise code path). The (sample,
// output-row) slabs are partitioned across workers goroutines; results
// are bit-identical at any worker count. Like DepthwiseDirect it
// indexes the sample slice directly with the window clipped to the
// input once per output row and pixel.
func DepthwiseNHWC(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NHWC {
		panic("kernels: DepthwiseNHWC requires NHWC input")
	}
	s := in.Shape()
	kArea := p.KernelH * p.KernelW
	if len(w) != s.C*kArea || len(bias) != s.C {
		panic("kernels: depthwise weight/bias size mismatch")
	}
	out := output(dst, convOutShape(s, s.C, p), tensor.NHWC)
	os := out.Shape()
	parFor(s.N*os.H, workers, func(j int) {
		n, oh := j/os.H, j%os.H
		ih0 := oh*p.StrideH - p.PadH
		r0, r1 := validSpan(p.KernelH, 1, ih0, s.H)
		src := sample(in, n)
		row := out.Data()[j*os.W*s.C : (j+1)*os.W*s.C]
		for ow := 0; ow < os.W; ow++ {
			iw0 := ow*p.StrideW - p.PadW
			q0, q1 := validSpan(p.KernelW, 1, iw0, s.W)
			px := row[ow*s.C : (ow+1)*s.C]
			for c := range px {
				sum := bias[c]
				k := w[c*kArea : (c+1)*kArea]
				for r := r0; r < r1; r++ {
					x, kr := ((ih0+r)*s.W+iw0)*s.C+c, r*p.KernelW
					for q := q0; q < q1; q++ {
						sum += float32(k[kr+q] * src[x+q*s.C])
					}
				}
				px[c] = sum
			}
		}
	})
	return out
}
