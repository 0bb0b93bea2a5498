package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file freezes the original At/Set-indexed loops of every kernel
// that now indexes plane and row slices directly. They are the oracle
// the slice-indexed kernels must match bit for bit: the same
// expressions, in the same order, over the same elements. Do not
// optimize them. Each product that feeds a sum is written float32(x*y)
// so that no compiler fuses it into a multiply-add (Go's arm64 backend
// would), which keeps the references exact on every architecture.

// refGemm is the C = A*B + C multiply the frozen lowering references
// call.
type refGemm func(m, n, k int, a, b, c []float32)

func refDepthwiseDirectPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	s := in.Shape()
	kArea := p.KernelH * p.KernelW
	out := tensor.New(convOutShape(s, s.C, p), tensor.NCHW)
	os := out.Shape()
	parFor(s.N*s.C, workers, func(j int) {
		n, c := j/s.C, j%s.C
		wBase := c * kArea
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				sum := bias[c]
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
						sum += float32(w[wBase+r*p.KernelW+q] * in.At(n, c, ih, iw))
					}
				}
				out.Set(n, c, oh, ow, sum)
			}
		}
	})
	return out
}

func refDepthwiseNHWCPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	s := in.Shape()
	kArea := p.KernelH * p.KernelW
	out := tensor.New(convOutShape(s, s.C, p), tensor.NHWC)
	os := out.Shape()
	parFor(s.N*os.H, workers, func(j int) {
		n, oh := j/os.H, j%os.H
		for ow := 0; ow < os.W; ow++ {
			for c := 0; c < s.C; c++ {
				sum := bias[c]
				wBase := c * kArea
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
						sum += float32(w[wBase+r*p.KernelW+q] * in.At(n, c, ih, iw))
					}
				}
				out.Set(n, c, oh, ow, sum)
			}
		}
	})
	return out
}

func refMaxPool(in *tensor.Tensor, p nn.ConvParams) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, s.C, p), in.Layout())
	os := out.Shape()
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for oh := 0; oh < os.H; oh++ {
				for ow := 0; ow < os.W; ow++ {
					best := float32(math.Inf(-1))
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
							if v := in.At(n, c, ih, iw); v > best {
								best = v
							}
						}
					}
					out.Set(n, c, oh, ow, best)
				}
			}
		}
	}
	return out
}

func refAvgPool(in *tensor.Tensor, p nn.ConvParams) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, s.C, p), in.Layout())
	os := out.Shape()
	area := float32(p.KernelH * p.KernelW)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for oh := 0; oh < os.H; oh++ {
				for ow := 0; ow < os.W; ow++ {
					var sum float32
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
							sum += in.At(n, c, ih, iw)
						}
					}
					out.Set(n, c, oh, ow, sum/area)
				}
			}
		}
	}
	return out
}

func refReLU(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	d := out.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return out
}

func refBatchNorm(in *tensor.Tensor, scale, shift []float32) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(s, in.Layout())
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					out.Set(n, c, h, w, float32(in.At(n, c, h, w)*scale[c])+shift[c])
				}
			}
		}
	}
	return out
}

func refSoftmax(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(s, in.Layout())
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				maxv := float64(math.Inf(-1))
				for c := 0; c < s.C; c++ {
					if v := float64(in.At(n, c, h, w)); v > maxv {
						maxv = v
					}
				}
				var sum float64
				exps := make([]float64, s.C)
				for c := 0; c < s.C; c++ {
					e := math.Exp(float64(in.At(n, c, h, w)) - maxv)
					exps[c] = e
					sum += e
				}
				for c := 0; c < s.C; c++ {
					out.Set(n, c, h, w, float32(exps[c]/sum))
				}
			}
		}
	}
	return out
}

func refConcat(ins []*tensor.Tensor) *tensor.Tensor {
	first := ins[0].Shape()
	total := 0
	for _, in := range ins {
		total += in.Shape().C
	}
	out := tensor.New(tensor.Shape{N: first.N, C: total, H: first.H, W: first.W}, ins[0].Layout())
	base := 0
	for _, in := range ins {
		s := in.Shape()
		for n := 0; n < s.N; n++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						out.Set(n, base+c, h, w, in.At(n, c, h, w))
					}
				}
			}
		}
		base += s.C
	}
	return out
}

func refToLayout(t *tensor.Tensor, l tensor.Layout) *tensor.Tensor {
	if t.Layout() == l {
		return t
	}
	out := tensor.New(t.Shape(), l)
	s := t.Shape()
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					out.Set(n, c, h, w, t.At(n, c, h, w))
				}
			}
		}
	}
	return out
}

func refEltwiseAdd(a, b *tensor.Tensor) *tensor.Tensor {
	bb := b.ToLayout(a.Layout())
	out := a.Clone()
	d, e := out.Data(), bb.Data()
	for i := range d {
		d[i] += e[i]
	}
	return out
}

func refFlatten(in *tensor.Tensor) *tensor.Tensor {
	nchw := refToLayout(in, tensor.NCHW)
	s := in.Shape()
	flat := tensor.Shape{N: s.N, C: s.C * s.H * s.W, H: 1, W: 1}
	d := make([]float32, len(nchw.Data()))
	copy(d, nchw.Data())
	return tensor.NewFrom(flat, tensor.NCHW, d)
}

func refConvSparse(in *tensor.Tensor, w *CSR, bias []float32, p nn.ConvParams) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	spatial := os.H * os.W
	for n := 0; n < s.N; n++ {
		cols := refIm2colPar(in, n, p, os.H, os.W, 1)
		res := make([]float32, p.OutChannels*spatial)
		for oc := 0; oc < p.OutChannels; oc++ {
			b := bias[oc]
			row := res[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] = b
			}
		}
		w.MulMat(spatial, cols, res)
		copy(out.Data()[n*os.C*spatial:], res)
	}
	return out
}

func refIm2colPar(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int) []float32 {
	s := in.Shape()
	rows := s.C * p.KernelH * p.KernelW
	cols := oh * ow
	m := make([]float32, rows*cols)
	parFor(oh, workers, func(y int) {
		row := 0
		for c := 0; c < s.C; c++ {
			for r := 0; r < p.KernelH; r++ {
				ih := y*p.StrideH + r - p.PadH
				for q := 0; q < p.KernelW; q++ {
					if ih >= 0 && ih < s.H {
						base := row*cols + y*ow
						for x := 0; x < ow; x++ {
							iw := x*p.StrideW + q - p.PadW
							if iw >= 0 && iw < s.W {
								m[base+x] = in.At(n, c, ih, iw)
							}
						}
					}
					row++
				}
			}
		}
	})
	return m
}

func refIm2rowPar(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int) []float32 {
	s := in.Shape()
	cols := s.C * p.KernelH * p.KernelW
	m := make([]float32, oh*ow*cols)
	parFor(oh, workers, func(y int) {
		patch := y * ow
		for x := 0; x < ow; x++ {
			base := patch * cols
			i := 0
			for c := 0; c < s.C; c++ {
				for r := 0; r < p.KernelH; r++ {
					ih := y*p.StrideH + r - p.PadH
					for q := 0; q < p.KernelW; q++ {
						iw := x*p.StrideW + q - p.PadW
						if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
							m[base+i] = in.At(n, c, ih, iw)
						}
						i++
					}
				}
			}
			patch++
		}
	})
	return m
}

func refConvIm2colPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul refGemm, workers int) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	for n := 0; n < s.N; n++ {
		cols := refIm2colPar(in, n, p, os.H, os.W, workers)
		res := make([]float32, p.OutChannels*spatial)
		for oc := 0; oc < p.OutChannels; oc++ {
			b := bias[oc]
			row := res[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] = b
			}
		}
		mul(p.OutChannels, spatial, ckk, w, cols, res)
		copy(out.Data()[n*os.C*spatial:], res)
	}
	return out
}

func refConvIm2rowPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul refGemm, workers int) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	wt := make([]float32, len(w))
	gemm.Transpose(p.OutChannels, ckk, w, wt)
	for n := 0; n < s.N; n++ {
		rows := refIm2rowPar(in, n, p, os.H, os.W, workers)
		res := make([]float32, spatial*p.OutChannels)
		for i := 0; i < spatial; i++ {
			copy(res[i*p.OutChannels:(i+1)*p.OutChannels], bias)
		}
		mul(spatial, p.OutChannels, ckk, rows, wt, res)
		dst := out.Data()[n*os.C*spatial:]
		for i := 0; i < spatial; i++ {
			for oc := 0; oc < p.OutChannels; oc++ {
				dst[oc*spatial+i] = res[i*p.OutChannels+oc]
			}
		}
	}
	return out
}

func refConvKn2rowPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul refGemm, workers int) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	spatial := os.H * os.W
	kArea := p.KernelH * p.KernelW
	sub := make([]float32, kArea*p.OutChannels*s.C)
	for oc := 0; oc < p.OutChannels; oc++ {
		for c := 0; c < s.C; c++ {
			for r := 0; r < p.KernelH; r++ {
				for q := 0; q < p.KernelW; q++ {
					off := r*p.KernelW + q
					sub[off*p.OutChannels*s.C+oc*s.C+c] = w[((oc*s.C+c)*p.KernelH+r)*p.KernelW+q]
				}
			}
		}
	}
	shift := make([]float32, s.C*spatial)
	for n := 0; n < s.N; n++ {
		res := make([]float32, p.OutChannels*spatial)
		for oc := 0; oc < p.OutChannels; oc++ {
			b := bias[oc]
			row := res[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] = b
			}
		}
		for r := 0; r < p.KernelH; r++ {
			for q := 0; q < p.KernelW; q++ {
				parFor(s.C, workers, func(c int) {
					base := c * spatial
					i := 0
					for y := 0; y < os.H; y++ {
						ih := y*p.StrideH + r - p.PadH
						for x := 0; x < os.W; x++ {
							iw := x*p.StrideW + q - p.PadW
							if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
								shift[base+i] = in.At(n, c, ih, iw)
							} else {
								shift[base+i] = 0
							}
							i++
						}
					}
				})
				off := r*p.KernelW + q
				mul(p.OutChannels, spatial, s.C, sub[off*p.OutChannels*s.C:(off+1)*p.OutChannels*s.C], shift, res)
			}
		}
		copy(out.Data()[n*os.C*spatial:], res)
	}
	return out
}

func refIm2colRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	cols := (y1 - y0) * ow
	parFor(y1-y0, workers, func(yy int) {
		y := y0 + yy
		row := 0
		for c := 0; c < s.C; c++ {
			for r := 0; r < p.KernelH; r++ {
				ih := y*p.StrideH + r - p.PadH
				inRow := ih >= 0 && ih < s.H
				for q := 0; q < p.KernelW; q++ {
					base := row*cols + yy*ow
					for x := 0; x < ow; x++ {
						iw := x*p.StrideW + q - p.PadW
						if inRow && iw >= 0 && iw < s.W {
							m[base+x] = in.At(n, c, ih, iw)
						} else {
							m[base+x] = 0
						}
					}
					row++
				}
			}
		}
	})
}

func refIm2rowRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	parFor(y1-y0, workers, func(yy int) {
		y := y0 + yy
		for x := 0; x < ow; x++ {
			base := (yy*ow + x) * ckk
			i := 0
			for c := 0; c < s.C; c++ {
				for r := 0; r < p.KernelH; r++ {
					ih := y*p.StrideH + r - p.PadH
					for q := 0; q < p.KernelW; q++ {
						iw := x*p.StrideW + q - p.PadW
						if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
							m[base+i] = in.At(n, c, ih, iw)
						} else {
							m[base+i] = 0
						}
						i++
					}
				}
			}
		}
	})
}

func refPanelRows(panel, oh int) int {
	if panel <= 0 || panel > oh {
		return oh
	}
	return panel
}

// refTunedGemm returns the GEMM and fan-out a ConvTuned config runs
// with: cfg.Workers (1 when unset) and cfg.Block on the packed GEMM.
func refTunedGemm(cfg ConvTuned) (refGemm, int) {
	workers := max(cfg.Workers, 1)
	return func(m, n, k int, a, b, c []float32) {
		gemm.ParallelCfg(m, n, k, a, b, c, workers, cfg.Block, nil)
	}, workers
}

func refConvIm2colTuned(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, cfg ConvTuned) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	mul, workers := refTunedGemm(cfg)
	panel := refPanelRows(cfg.Panel, os.H)
	cols := make([]float32, ckk*panel*os.W)
	pres := make([]float32, p.OutChannels*panel*os.W)
	for n := 0; n < s.N; n++ {
		dst := out.Data()[n*os.C*spatial:]
		for y0 := 0; y0 < os.H; y0 += panel {
			y1 := min(y0+panel, os.H)
			pcols := (y1 - y0) * os.W
			refIm2colRows(in, n, p, os.W, y0, y1, workers, cols)
			for oc := 0; oc < p.OutChannels; oc++ {
				b := bias[oc]
				row := pres[oc*pcols : (oc+1)*pcols]
				for i := range row {
					row[i] = b
				}
			}
			mul(p.OutChannels, pcols, ckk, w, cols, pres)
			for oc := 0; oc < p.OutChannels; oc++ {
				copy(dst[oc*spatial+y0*os.W:oc*spatial+y1*os.W], pres[oc*pcols:(oc+1)*pcols])
			}
		}
	}
	return out
}

func refConvIm2rowTuned(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, cfg ConvTuned) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	mul, workers := refTunedGemm(cfg)
	panel := refPanelRows(cfg.Panel, os.H)
	wt := make([]float32, len(w))
	gemm.Transpose(p.OutChannels, ckk, w, wt)
	rows := make([]float32, panel*os.W*ckk)
	pres := make([]float32, panel*os.W*p.OutChannels)
	for n := 0; n < s.N; n++ {
		dst := out.Data()[n*os.C*spatial:]
		for y0 := 0; y0 < os.H; y0 += panel {
			y1 := min(y0+panel, os.H)
			prows := (y1 - y0) * os.W
			refIm2rowRows(in, n, p, os.W, y0, y1, workers, rows)
			for i := 0; i < prows; i++ {
				copy(pres[i*p.OutChannels:(i+1)*p.OutChannels], bias)
			}
			mul(prows, p.OutChannels, ckk, rows, wt, pres)
			for i := 0; i < prows; i++ {
				for oc := 0; oc < p.OutChannels; oc++ {
					dst[oc*spatial+y0*os.W+i] = pres[i*p.OutChannels+oc]
				}
			}
		}
	}
	return out
}

// refGeom is one random case of the reference comparison: an input
// shape and a window (kernel, stride, padding) shared by the conv,
// depth-wise and pooling kernels.
type refGeom struct {
	name string
	in   tensor.Shape
	p    nn.ConvParams
}

// refGeometries covers the shapes the MobileNets execute (3x3
// depth-wise at stride 1 and 2 on every plane size they run, 1x1
// pointwise) plus the edges of the slice-indexed and vector paths:
// windows wider than the input, rows that are entirely padding, 3x3
// interiors touching the left and right edge columns, and ragged
// widths whose rows end in a partial vector.
var refGeometries = []refGeom{
	{"mb112s1", tensor.Shape{N: 1, C: 2, H: 112, W: 112}, mbDepthwise(1)},
	{"mb112s2", tensor.Shape{N: 1, C: 2, H: 112, W: 112}, mbDepthwise(2)},
	{"mb56s1", tensor.Shape{N: 1, C: 2, H: 56, W: 56}, mbDepthwise(1)},
	{"mb56s2", tensor.Shape{N: 1, C: 2, H: 56, W: 56}, mbDepthwise(2)},
	{"mb28s1", tensor.Shape{N: 1, C: 3, H: 28, W: 28}, mbDepthwise(1)},
	{"mb28s2", tensor.Shape{N: 1, C: 3, H: 28, W: 28}, mbDepthwise(2)},
	{"mb14s1", tensor.Shape{N: 1, C: 4, H: 14, W: 14}, mbDepthwise(1)},
	{"mb14s2", tensor.Shape{N: 1, C: 4, H: 14, W: 14}, mbDepthwise(2)},
	{"mb7s1", tensor.Shape{N: 2, C: 4, H: 7, W: 7}, mbDepthwise(1)},
	{"mb7s2", tensor.Shape{N: 2, C: 4, H: 7, W: 7}, mbDepthwise(2)},
	{"w9s1", tensor.Shape{N: 1, C: 2, H: 5, W: 9}, mbDepthwise(1)},
	{"w9s2", tensor.Shape{N: 1, C: 2, H: 5, W: 9}, mbDepthwise(2)},
	{"w15s1", tensor.Shape{N: 1, C: 2, H: 4, W: 15}, mbDepthwise(1)},
	{"w15s2", tensor.Shape{N: 1, C: 2, H: 6, W: 15}, mbDepthwise(2)},
	{"w17s1", tensor.Shape{N: 1, C: 2, H: 3, W: 17}, mbDepthwise(1)},
	{"w17s2", tensor.Shape{N: 1, C: 2, H: 5, W: 17}, mbDepthwise(2)},
	{"w33s1", tensor.Shape{N: 1, C: 2, H: 2, W: 33}, mbDepthwise(1)},
	{"w33s2", tensor.Shape{N: 1, C: 2, H: 7, W: 33}, mbDepthwise(2)},
	{"dw3x3s1p1", tensor.Shape{N: 1, C: 4, H: 7, W: 9}, nn.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"dw3x3s2p1", tensor.Shape{N: 2, C: 3, H: 8, W: 8}, nn.ConvParams{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
	{"3x3p0edges", tensor.Shape{N: 1, C: 2, H: 5, W: 3}, nn.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}},
	{"3x3p2", tensor.Shape{N: 1, C: 2, H: 4, W: 6}, nn.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}},
	{"pointwise", tensor.Shape{N: 2, C: 5, H: 4, W: 6}, nn.ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}},
	{"1x1s2", tensor.Shape{N: 1, C: 3, H: 7, W: 5}, nn.ConvParams{KernelH: 1, KernelW: 1, StrideH: 2, StrideW: 2}},
	{"1x1p1", tensor.Shape{N: 1, C: 3, H: 3, W: 4}, nn.ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"5x5s3p2", tensor.Shape{N: 1, C: 2, H: 9, W: 11}, nn.ConvParams{KernelH: 5, KernelW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 2}},
	{"asym", tensor.Shape{N: 1, C: 3, H: 6, W: 10}, nn.ConvParams{KernelH: 2, KernelW: 4, StrideH: 2, StrideW: 1, PadH: 0, PadW: 2}},
	{"wide1", tensor.Shape{N: 1, C: 2, H: 1, W: 1}, nn.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"pool2x2s2", tensor.Shape{N: 1, C: 3, H: 6, W: 7}, nn.ConvParams{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}},
}

// mbDepthwise is MobileNet's depth-wise window: 3x3, padding 1.
func mbDepthwise(stride int) nn.ConvParams {
	return nn.ConvParams{KernelH: 3, KernelW: 3, StrideH: stride, StrideW: stride, PadH: 1, PadW: 1}
}

// specials are the values the element-wise and data-movement kernels
// must carry through bit for bit.
var specials = []float32{
	float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0,
}

// randTensor returns an NCHW tensor of values in [-1, 1]; withSpecials
// also scatters signed zeros, NaN and infinities into it.
func randTensor(rng *rand.Rand, s tensor.Shape, withSpecials bool) *tensor.Tensor {
	x := tensor.New(s, tensor.NCHW)
	x.FillRandom(rng, 1)
	if withSpecials {
		d := x.Data()
		for i := range d {
			if rng.Intn(6) == 0 {
				d[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return x
}

func randSlice(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func sliceBitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// gemmCase pairs a lowering kernel's GEMM with the multiply its frozen
// reference calls.
type gemmCase struct {
	name string
	mul  Gemm
	ref  refGemm
}

// refGemms lists the naive GEMM and the packed one under the
// dispatched kernel and under every registered variant by name, the
// pure-Go fallback that QSDNN_DISABLE_SIMD selects included. Every
// variant must reproduce the 1-worker packed reference bit for bit.
func refGemms() []gemmCase {
	cases := []gemmCase{{"naive", Naive, gemm.Naive}, {"packed", Packed, packed}}
	for _, name := range gemm.KernelVariants() {
		cases = append(cases, gemmCase{"packed-" + name, Gemm{Packed: true, Block: gemm.BlockConfig{Kernel: name}}, packed})
	}
	return cases
}

// nanSlice returns n NaNs: scratch a kernel that read before writing
// would leak into its output.
func nanSlice(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

// checkMatchesReference runs every kernel on g against its frozen
// At/Set loop — or, for the kernels that never had their loops
// rewritten, against their own output into a fresh tensor — and fails
// t unless the outputs carry identical bits, at workers 1 and 3 and
// (for the layout-general kernels) in both layouts. Each kernel runs
// three ways: with a nil destination, into a destination filled with
// NaN (so a kernel that relies on zeroed memory fails), and, for the
// kernels that accept it, in place into its own first input.
func checkMatchesReference(t *testing.T, g refGeom, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := g.in
	fail := func(what, how string) {
		t.Helper()
		t.Errorf("%s %s (in %v, %+v) %s: not bit-identical to the reference", g.name, what, s, g.p, how)
	}
	same := func(what string, want *tensor.Tensor, run func(dst *tensor.Tensor) *tensor.Tensor) {
		t.Helper()
		if !tensorsBitEqual(want, run(nil)) {
			fail(what, "into a nil dst")
		}
		poisoned := tensor.New(want.Shape(), want.Layout())
		poisoned.Fill(float32(math.NaN()))
		if got := run(poisoned); got != poisoned || !tensorsBitEqual(want, got) {
			fail(what, "into a NaN-filled dst")
		}
	}
	sameInPlace := func(what string, want, in *tensor.Tensor, run func(dst, in *tensor.Tensor) *tensor.Tensor) {
		t.Helper()
		same(what, want, func(dst *tensor.Tensor) *tensor.Tensor { return run(dst, in) })
		alias := in.Clone()
		if got := run(alias, alias); got != alias || !tensorsBitEqual(want, got) {
			fail(what, "in place")
		}
	}
	// sameScratch also runs a kernel that takes scratch into a nil dst
	// with NaN-filled scratch of exactly size elements and of more.
	sameScratch := func(what string, want *tensor.Tensor, size int, run func(dst *tensor.Tensor, scratch []float32) *tensor.Tensor) {
		t.Helper()
		same(what, want, func(dst *tensor.Tensor) *tensor.Tensor { return run(dst, nil) })
		for _, n := range []int{size, size + 13} {
			if !tensorsBitEqual(want, run(nil, nanSlice(n))) {
				fail(what, fmt.Sprintf("with %d NaN-filled scratch elements (%d needed)", n, size))
			}
		}
	}
	sameSlice := func(what string, want []float32, run func(dst []float32) []float32) {
		t.Helper()
		if !sliceBitEqual(want, run(nil)) {
			fail(what, "into a nil dst")
		}
		poisoned := make([]float32, len(want))
		for i := range poisoned {
			poisoned[i] = float32(math.NaN())
		}
		if !sliceBitEqual(want, run(poisoned)) || !sliceBitEqual(want, poisoned) {
			fail(what, "into a NaN-filled dst")
		}
	}

	x := randTensor(rng, s, false)
	xs := randTensor(rng, s, true)
	scale, shift := randSlice(rng, s.C), randSlice(rng, s.C)
	for _, l := range tensor.Layouts() {
		xl, xsl := refToLayout(x, l), refToLayout(xs, l)
		ln := l.String()
		for _, to := range tensor.Layouts() {
			same("Convert/"+ln+"->"+to.String(), refToLayout(refToLayout(xsl, to), to), func(dst *tensor.Tensor) *tensor.Tensor {
				if dst == nil {
					return xsl.ToLayout(to).Clone()
				}
				return tensor.Convert(dst, xsl)
			})
		}
		// ReLU and BatchNorm under every registered variant's rows, the
		// pure-Go ones included on a host that dispatches AVX2.
		wantReLU, wantBN := refReLU(xsl), refBatchNorm(xsl, scale, shift)
		for _, name := range gemm.KernelVariants() {
			rows := gemm.VariantRows(name)
			sameInPlace("ReLU/"+name+"/"+ln, wantReLU, xsl, func(dst, in *tensor.Tensor) *tensor.Tensor {
				return relu(rows, dst, in)
			})
			sameInPlace("BatchNorm/"+name+"/"+ln, wantBN, xsl, func(dst, in *tensor.Tensor) *tensor.Tensor {
				return batchNorm(rows, dst, in, scale, shift)
			})
		}
		other := randTensor(rng, s, true) // NCHW, so the NHWC pass adds across layouts
		sameInPlace("EltwiseAdd/"+ln, refEltwiseAdd(xsl, other), xsl, func(dst, in *tensor.Tensor) *tensor.Tensor {
			return EltwiseAdd(dst, in, other)
		})
		same("Softmax/"+ln, refSoftmax(xl), func(dst *tensor.Tensor) *tensor.Tensor { return Softmax(dst, xl) })
		same("LRN/"+ln, LRN(nil, xl, 3), func(dst *tensor.Tensor) *tensor.Tensor { return LRN(dst, xl, 3) })
		same("MaxPool/"+ln, refMaxPool(xsl, g.p), func(dst *tensor.Tensor) *tensor.Tensor { return MaxPool(dst, xsl, g.p) })
		same("AvgPool/"+ln, refAvgPool(xl, g.p), func(dst *tensor.Tensor) *tensor.Tensor { return AvgPool(dst, xl, g.p) })
		parts := []*tensor.Tensor{xsl, refToLayout(randTensor(rng, tensor.Shape{N: s.N, C: 2, H: s.H, W: s.W}, true), l), xl}
		same("Concat/"+ln, refConcat(parts), func(dst *tensor.Tensor) *tensor.Tensor { return Concat(dst, parts) })
		same("Flatten/"+ln, refFlatten(xsl), func(dst *tensor.Tensor) *tensor.Tensor { return Flatten(dst, xsl) })
	}
	fw, fb := randSlice(rng, 3*s.C*s.H*s.W), randSlice(rng, 3)
	same("FCGemv", FCGemv(nil, x, fw, fb, 3), func(dst *tensor.Tensor) *tensor.Tensor { return FCGemv(dst, x, fw, fb, 3) })
	csr := FromDense(3, s.C*s.H*s.W, fw, 0)
	same("FCSparse", FCSparse(nil, x, csr, fb), func(dst *tensor.Tensor) *tensor.Tensor { return FCSparse(dst, x, csr, fb) })

	dw, db := randSlice(rng, s.C*g.p.KernelH*g.p.KernelW), randSlice(rng, s.C)
	p := g.p
	p.OutChannels = 3
	w, b := randSlice(rng, p.OutChannels*s.C*p.KernelH*p.KernelW), randSlice(rng, p.OutChannels)
	os := convOutShape(s, p.OutChannels, p)
	xh := refToLayout(x, tensor.NHWC)
	wcsr := FromDense(p.OutChannels, s.C*p.KernelH*p.KernelW, w, 0)
	sameScratch("ConvSparse", refConvSparse(x, wcsr, b, p), ConvSparseScratch(s, p), func(dst *tensor.Tensor, scratch []float32) *tensor.Tensor {
		return ConvSparse(dst, x, wcsr, b, p, scratch)
	})
	for _, workers := range []int{1, 3} {
		wantDW := refDepthwiseDirectPar(x, dw, db, g.p, workers)
		for _, name := range gemm.KernelVariants() {
			rows := gemm.VariantRows(name)
			same("Depthwise/"+name, wantDW, func(dst *tensor.Tensor) *tensor.Tensor {
				return depthwiseDirect(rows, dst, x, dw, db, g.p, workers)
			})
		}
		same("DepthwiseNHWC", refDepthwiseNHWCPar(xh, dw, db, g.p, workers), func(dst *tensor.Tensor) *tensor.Tensor {
			return DepthwiseNHWC(dst, xh, dw, db, g.p, workers)
		})
		for n := 0; n < s.N; n++ {
			sameSlice("Im2col", refIm2colPar(x, n, p, os.H, os.W, workers), func(dst []float32) []float32 {
				return Im2col(dst, x, n, p, os.H, os.W, workers)
			})
			sameSlice("Im2row", refIm2rowPar(x, n, p, os.H, os.W, workers), func(dst []float32) []float32 {
				return Im2row(dst, x, n, p, os.H, os.W, workers)
			})
		}
		for _, g := range refGemms() {
			name, mul := g.name, g.mul
			check := func(what string, want *tensor.Tensor, size int, run func(dst *tensor.Tensor, scratch []float32) *tensor.Tensor) {
				t.Helper()
				sameScratch(what+"/"+name, want, size, run)
			}
			check("ConvIm2col", refConvIm2colPar(x, w, b, p, g.ref, workers), ConvIm2colScratch(s, p, mul, workers, 0), func(dst *tensor.Tensor, scratch []float32) *tensor.Tensor {
				return ConvIm2col(dst, x, w, b, p, mul, workers, 0, scratch)
			})
			check("ConvIm2row", refConvIm2rowPar(x, w, b, p, g.ref, workers), ConvIm2rowScratch(s, p, mul, workers, 0), func(dst *tensor.Tensor, scratch []float32) *tensor.Tensor {
				return ConvIm2row(dst, x, w, b, p, mul, workers, 0, scratch)
			})
			check("ConvKn2row", refConvKn2rowPar(x, w, b, p, g.ref, workers), ConvKn2rowScratch(s, p, mul, workers), func(dst *tensor.Tensor, scratch []float32) *tensor.Tensor {
				return ConvKn2row(dst, x, w, b, p, mul, workers, scratch)
			})
		}
		for _, panel := range []int{0, 2} {
			for _, blk := range []gemm.BlockConfig{{}, {KC: 5, NC: 9}} {
				cfg := ConvTuned{Panel: panel, Workers: workers, Block: blk}
				mul := Gemm{Packed: true, Block: blk}
				sameScratch("ConvIm2col/tuned", refConvIm2colTuned(x, w, b, p, cfg), ConvIm2colScratch(s, p, mul, workers, panel), func(dst *tensor.Tensor, scratch []float32) *tensor.Tensor {
					return ConvIm2col(dst, x, w, b, p, mul, workers, panel, scratch)
				})
				sameScratch("ConvIm2row/tuned", refConvIm2rowTuned(x, w, b, p, cfg), ConvIm2rowScratch(s, p, mul, workers, panel), func(dst *tensor.Tensor, scratch []float32) *tensor.Tensor {
					return ConvIm2row(dst, x, w, b, p, mul, workers, panel, scratch)
				})
			}
		}
		// The kernels whose loops were never rewritten are their own
		// reference: a reused destination must not change their output.
		own := map[string]func(dst *tensor.Tensor) *tensor.Tensor{
			"ConvDirect": func(dst *tensor.Tensor) *tensor.Tensor { return ConvDirect(dst, x, w, b, p, workers) },
			"ConvDirectNHWC": func(dst *tensor.Tensor) *tensor.Tensor {
				return ConvDirectNHWC(dst, xh, w, b, p, workers)
			},
		}
		if p.StrideH == 1 && p.StrideW == 1 {
			own["ConvFFT"] = func(dst *tensor.Tensor) *tensor.Tensor { return ConvFFT(dst, x, w, b, p, workers) }
			if p.KernelH == 3 && p.KernelW == 3 {
				own["ConvWinograd"] = func(dst *tensor.Tensor) *tensor.Tensor { return ConvWinograd(dst, x, w, b, p, workers) }
			}
		}
		if s.C%2 == 0 {
			pg := p
			pg.Groups, pg.OutChannels = 2, 4
			gw, gb := randSlice(rng, pg.OutChannels*s.C/2*p.KernelH*p.KernelW), randSlice(rng, pg.OutChannels)
			own["ConvGroupedDirect"] = func(dst *tensor.Tensor) *tensor.Tensor { return ConvGroupedDirect(dst, x, gw, gb, pg, workers) }
			own["ConvGroupedIm2col"] = func(dst *tensor.Tensor) *tensor.Tensor {
				return ConvGroupedIm2col(dst, x, gw, gb, pg, Packed, workers)
			}
		}
		for name, run := range own {
			same(name, run(nil), run)
		}
	}
}

// TestKernelsMatchReference checks the slice-indexed kernels against
// the frozen At/Set loops on the table of edge-case geometries.
func TestKernelsMatchReference(t *testing.T) {
	for i, g := range refGeometries {
		checkMatchesReference(t, g, int64(100+i))
	}
	for i, g := range convGeometries {
		checkMatchesReference(t, refGeom{g.name, g.in, g.p}, int64(200+i))
	}
}

// FuzzKernelsMatchReference draws N 1-2, C 1-6, H 1-12, W 1-40, kernel
// 1-5, stride 1-3 and padding 0-2, and checks every slice-indexed
// kernel against its frozen reference. W reaches 40 so that a stride-2
// row holds more than one full 8-lane vector.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(6), uint8(8), uint8(2), uint8(2), uint8(0), uint8(1), int64(1))
	f.Add(uint8(1), uint8(4), uint8(7), uint8(5), uint8(0), uint8(0), uint8(0), uint8(0), int64(2))
	f.Add(uint8(0), uint8(2), uint8(11), uint8(2), uint8(4), uint8(3), uint8(2), uint8(2), int64(3))
	f.Add(uint8(1), uint8(5), uint8(0), uint8(0), uint8(2), uint8(2), uint8(1), uint8(1), int64(4))
	f.Add(uint8(0), uint8(0), uint8(9), uint8(11), uint8(1), uint8(4), uint8(1), uint8(0), int64(5))
	f.Add(uint8(0), uint8(2), uint8(9), uint8(32), uint8(2), uint8(2), uint8(4), uint8(4), int64(6))
	f.Add(uint8(1), uint8(1), uint8(6), uint8(20), uint8(2), uint8(2), uint8(0), uint8(4), int64(7))
	f.Fuzz(func(t *testing.T, nb, cc, hh, ww, kh, kw, stride, pad uint8, seed int64) {
		s := tensor.Shape{N: int(nb%2) + 1, C: int(cc%6) + 1, H: int(hh%12) + 1, W: int(ww%40) + 1}
		p := nn.ConvParams{
			KernelH: int(kh%5) + 1, KernelW: int(kw%5) + 1,
			StrideH: int(stride%3) + 1, StrideW: int(stride/3%3) + 1,
			PadH: int(pad % 3), PadW: int(pad / 3 % 3),
		}
		if s.H+2*p.PadH < p.KernelH || s.W+2*p.PadW < p.KernelW {
			t.Skip("window larger than the padded input")
		}
		checkMatchesReference(t, refGeom{"fuzz", s, p}, seed)
	})
}
