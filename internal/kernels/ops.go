package kernels

import (
	"fmt"
	"math"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// FCGemv computes a fully-connected layer as a dense GEMV (the
// cuBLAS-style batch-1 path). Weights are row-major (OutUnits x In).
func FCGemv(dst, in *tensor.Tensor, w, bias []float32, outUnits int) *tensor.Tensor {
	s := in.Shape()
	inWidth := s.C * s.H * s.W
	if len(w) != outUnits*inWidth {
		panic(fmt.Sprintf("kernels: FC weights have %d elements, need %d", len(w), outUnits*inWidth))
	}
	if len(bias) != outUnits {
		panic("kernels: FC bias size mismatch")
	}
	out := output(dst, tensor.Shape{N: s.N, C: outUnits, H: 1, W: 1}, tensor.NCHW)
	for n := 0; n < s.N; n++ {
		x := in.Data()[n*inWidth : (n+1)*inWidth]
		y := out.Data()[n*outUnits : (n+1)*outUnits]
		copy(y, bias)
		gemm.Gemv(outUnits, inWidth, w, x, y)
	}
	return out
}

// MaxPool computes spatial max pooling, preserving the input layout.
// Padded positions never win the max (they are treated as -inf).
func MaxPool(dst, in *tensor.Tensor, p nn.ConvParams) *tensor.Tensor {
	out := output(dst, convOutShape(in.Shape(), in.Shape().C, p), in.Layout())
	src := in.Data()
	poolWindows(in, out, p, func(x, r0, r1, dr, q0, q1, dq int) float32 {
		best := float32(math.Inf(-1))
		for r := r0; r < r1; r++ {
			for q := q0; q < q1; q++ {
				if v := src[x+r*dr+q*dq]; v > best {
					best = v
				}
			}
		}
		return best
	})
	return out
}

// AvgPool computes spatial average pooling, preserving the input
// layout and dividing by the full window area (Caffe convention).
func AvgPool(dst, in *tensor.Tensor, p nn.ConvParams) *tensor.Tensor {
	out := output(dst, convOutShape(in.Shape(), in.Shape().C, p), in.Layout())
	src := in.Data()
	area := float32(p.KernelH * p.KernelW)
	poolWindows(in, out, p, func(x, r0, r1, dr, q0, q1, dq int) float32 {
		var sum float32
		for r := r0; r < r1; r++ {
			for q := q0; q < q1; q++ {
				sum += src[x+r*dr+q*dq]
			}
		}
		return sum / area
	})
	return out
}

// poolWindows stores reduce's value for every pooling window into out,
// in either layout. reduce reads the taps (r, q) for r in [r0, r1) and
// q in [q0, q1) — the window clipped to the input, so padding is never
// visited — at in.Data()[x + r*dr + q*dq], in r-major, q-minor order.
func poolWindows(in, out *tensor.Tensor, p nn.ConvParams, reduce func(x, r0, r1, dr, q0, q1, dq int) float32) {
	s, os := in.Shape(), out.Shape()
	y := out.Data()
	isn, isc, ish, isw := in.Strides()
	osn, osc, osh, osw := out.Strides()
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for oh := 0; oh < os.H; oh++ {
				ih0 := oh*p.StrideH - p.PadH
				r0, r1 := validSpan(p.KernelH, 1, ih0, s.H)
				for ow := 0; ow < os.W; ow++ {
					iw0 := ow*p.StrideW - p.PadW
					q0, q1 := validSpan(p.KernelW, 1, iw0, s.W)
					x := n*isn + c*isc + ih0*ish + iw0*isw
					y[n*osn+c*osc+oh*osh+ow*osw] = reduce(x, r0, r1, ish, q0, q1, isw)
				}
			}
		}
	}
}

// ReLU applies max(0, x) element-wise, preserving layout, in one pass
// of the dispatched ReLU row (gemm.Rows). Only values below zero are
// replaced, so -0 and NaN pass through with their bits unchanged. dst
// may be in itself.
func ReLU(dst, in *tensor.Tensor) *tensor.Tensor {
	return relu(gemm.ActiveRows(), dst, in)
}

func relu(rows *gemm.Rows, dst, in *tensor.Tensor) *tensor.Tensor {
	out := output(dst, in.Shape(), in.Layout())
	rows.ReLU(out.Data(), in.Data())
	return out
}

// BatchNorm applies the inference-mode affine transform
// y = x*scale[c] + shift[c] per channel, preserving layout: one
// channel's parameters over each NCHW plane, or every channel's over
// each NHWC pixel. An NCHW plane is one call of the dispatched Affine
// row (gemm.Rows). dst may be in itself.
func BatchNorm(dst, in *tensor.Tensor, scale, shift []float32) *tensor.Tensor {
	return batchNorm(gemm.ActiveRows(), dst, in, scale, shift)
}

func batchNorm(rows *gemm.Rows, dst, in *tensor.Tensor, scale, shift []float32) *tensor.Tensor {
	s := in.Shape()
	if len(scale) != s.C || len(shift) != s.C {
		panic("kernels: batch-norm parameter size mismatch")
	}
	out := output(dst, s, in.Layout())
	src, res := in.Data(), out.Data()
	if in.Layout() == tensor.NHWC {
		for i := 0; i < len(src); i += s.C {
			y := res[i : i+s.C]
			for c, v := range src[i : i+s.C] {
				y[c] = float32(v*scale[c]) + shift[c]
			}
		}
		return out
	}
	hw := s.H * s.W
	for j := 0; j < s.N*s.C; j++ {
		rows.Affine(res[j*hw:(j+1)*hw], src[j*hw:(j+1)*hw], scale[j%s.C], shift[j%s.C])
	}
	return out
}

// LRN applies AlexNet-style cross-channel local response
// normalization with window size, alpha 1e-4, beta 0.75, k 1.
func LRN(dst, in *tensor.Tensor, size int) *tensor.Tensor {
	const (
		alpha = 1e-4
		beta  = 0.75
		k     = 1.0
	)
	s := in.Shape()
	out := output(dst, s, in.Layout())
	half := size / 2
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				for c := 0; c < s.C; c++ {
					var sq float64
					for j := c - half; j <= c+half; j++ {
						if j < 0 || j >= s.C {
							continue
						}
						v := float64(in.At(n, j, h, w))
						sq += float64(v * v)
					}
					denom := math.Pow(k+alpha*sq/float64(size), beta)
					out.Set(n, c, h, w, float32(float64(in.At(n, c, h, w))/denom))
				}
			}
		}
	}
	return out
}

// Softmax normalizes each sample's values into probabilities over the
// channel axis (numerically stabilized by max subtraction).
func Softmax(dst, in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := output(dst, s, in.Layout())
	src, res := in.Data(), out.Data()
	sn, sc, sh, sw := in.Strides()
	exps := make([]float64, s.C)
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				base := n*sn + h*sh + w*sw
				maxv := float64(math.Inf(-1))
				for c := range exps {
					if v := float64(src[base+c*sc]); v > maxv {
						maxv = v
					}
				}
				var sum float64
				for c := range exps {
					e := math.Exp(float64(src[base+c*sc]) - maxv)
					exps[c] = e
					sum += e
				}
				for c, e := range exps {
					res[base+c*sc] = float32(e / sum)
				}
			}
		}
	}
	return out
}

// Concat concatenates the inputs along the channel axis. All inputs
// must share N/H/W and layout; the output uses the first input's layout.
func Concat(dst *tensor.Tensor, ins []*tensor.Tensor) *tensor.Tensor {
	if len(ins) == 0 {
		panic("kernels: Concat needs at least one input")
	}
	first := ins[0].Shape()
	total := 0
	for _, in := range ins {
		s := in.Shape()
		if s.N != first.N || s.H != first.H || s.W != first.W {
			panic("kernels: Concat inputs have incompatible shapes")
		}
		if in.Layout() != ins[0].Layout() {
			panic("kernels: Concat inputs must share a layout")
		}
		total += s.C
	}
	out := output(dst, tensor.Shape{N: first.N, C: total, H: first.H, W: first.W}, ins[0].Layout())
	res := out.Data()
	hw := first.H * first.W
	base := 0
	for _, in := range ins {
		src, c := in.Data(), in.Shape().C
		for n := 0; n < first.N; n++ {
			if in.Layout() == tensor.NCHW {
				// A sample's channels are one contiguous block.
				copy(res[(n*total+base)*hw:], src[n*c*hw:(n+1)*c*hw])
				continue
			}
			// NHWC: each pixel's channels are a contiguous run.
			for i := n * hw; i < (n+1)*hw; i++ {
				copy(res[i*total+base:], src[i*c:(i+1)*c])
			}
		}
		base += c
	}
	return out
}

// EltwiseAdd adds two tensors of identical shape element-wise, in a's
// layout. dst may be a itself.
func EltwiseAdd(dst, a, b *tensor.Tensor) *tensor.Tensor {
	if !a.Shape().Equal(b.Shape()) {
		panic("kernels: EltwiseAdd shape mismatch")
	}
	out := output(dst, a.Shape(), a.Layout())
	d, x, e := out.Data(), a.Data(), b.ToLayout(a.Layout()).Data()
	for i := range d {
		d[i] = x[i] + e[i]
	}
	return out
}

// Flatten reshapes an activation into N x (CHW) x 1 x 1, materializing
// NCHW order regardless of the input layout.
func Flatten(dst, in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := output(dst, tensor.Shape{N: s.N, C: s.C * s.H * s.W, H: 1, W: 1}, tensor.NCHW)
	tensor.Convert(tensor.NewFrom(s, tensor.NCHW, out.Data()), in)
	return out
}
