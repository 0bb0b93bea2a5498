package kernels

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ConvWinogradScratch returns the scratch elements ConvWinograd needs
// on input shape s with the same p: one 4x4 transformed filter block
// per (output, input) channel pair.
func ConvWinogradScratch(s tensor.Shape, p nn.ConvParams) int {
	return p.OutChannels * s.C * 16
}

// ConvWinograd computes a 3x3 stride-1 dense convolution with the
// Winograd F(2x2, 3x3) algorithm: the input is processed in 4x4 tiles
// producing 2x2 output tiles, with the filter transformed once. This
// is the ArmCL/NNPACK fast path for the 3x3 convolutions that dominate
// VGG-style networks. Panics if the geometry is not 3x3 stride 1 —
// the primitive registry never selects it otherwise. The (sample,
// output-channel) tile batches are partitioned across workers
// goroutines. The filter transform is computed once, into scratch, and
// shared read-only; each (n, oc) plane of tiles is owned by one
// iteration with its own tile registers, so results are bit-identical
// at any worker count. scratch is the kernel's workspace: nil
// allocates it, otherwise it must hold ConvWinogradScratch elements.
func ConvWinograd(dst, in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int, scratch []float32) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvWinograd requires NCHW input")
	}
	if p.KernelH != 3 || p.KernelW != 3 || p.StrideH != 1 || p.StrideW != 1 {
		panic("kernels: ConvWinograd supports only 3x3 stride-1 convolutions")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := output(dst, convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()

	// Filter transform U = G g G^T, one 4x4 block per (oc, c).
	// G = [1 0 0; .5 .5 .5; .5 -.5 .5; 0 0 1]
	u := workspace(scratch, ConvWinogradScratch(s, p))
	for oc := 0; oc < p.OutChannels; oc++ {
		for c := 0; c < s.C; c++ {
			g := w[(oc*s.C+c)*9 : (oc*s.C+c)*9+9]
			// t = G * g  (4x3)
			var t [12]float32
			for col := 0; col < 3; col++ {
				g0, g1, g2 := g[col], g[3+col], g[6+col]
				t[col] = g0
				t[3+col] = 0.5 * (g0 + g1 + g2)
				t[6+col] = 0.5 * (g0 - g1 + g2)
				t[9+col] = g2
			}
			// U = t * G^T (4x4)
			dst := u[(oc*s.C+c)*16:]
			for row := 0; row < 4; row++ {
				a, b2, c2 := t[row*3], t[row*3+1], t[row*3+2]
				dst[row*4] = a
				dst[row*4+1] = 0.5 * (a + b2 + c2)
				dst[row*4+2] = 0.5 * (a - b2 + c2)
				dst[row*4+3] = c2
			}
		}
	}

	tilesH := (os.H + 1) / 2
	tilesW := (os.W + 1) / 2
	parFor(s.N*p.OutChannels, workers, func(j int) {
		n, oc := j/p.OutChannels, j%p.OutChannels
		var d, v, m [16]float32
		{
			for ty := 0; ty < tilesH; ty++ {
				for tx := 0; tx < tilesW; tx++ {
					for i := range m {
						m[i] = 0
					}
					for c := 0; c < s.C; c++ {
						// Load the 4x4 input tile (zero padded).
						for y := 0; y < 4; y++ {
							ih := ty*2 + y - p.PadH
							for x := 0; x < 4; x++ {
								iw := tx*2 + x - p.PadW
								if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
									d[y*4+x] = in.At(n, c, ih, iw)
								} else {
									d[y*4+x] = 0
								}
							}
						}
						// V = B^T d B with
						// B^T = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1]
						var tmp [16]float32
						for col := 0; col < 4; col++ {
							d0, d1, d2, d3 := d[col], d[4+col], d[8+col], d[12+col]
							tmp[col] = d0 - d2
							tmp[4+col] = d1 + d2
							tmp[8+col] = d2 - d1
							tmp[12+col] = d1 - d3
						}
						for row := 0; row < 4; row++ {
							t0, t1, t2, t3 := tmp[row*4], tmp[row*4+1], tmp[row*4+2], tmp[row*4+3]
							v[row*4] = t0 - t2
							v[row*4+1] = t1 + t2
							v[row*4+2] = t2 - t1
							v[row*4+3] = t1 - t3
						}
						// M += U ⊙ V
						ub := u[(oc*s.C+c)*16:]
						for i := 0; i < 16; i++ {
							m[i] += float32(ub[i] * v[i])
						}
					}
					// Y = A^T M A with A^T = [1 1 1 0; 0 1 -1 -1]
					var rows [8]float32
					for col := 0; col < 4; col++ {
						m0, m1, m2, m3 := m[col], m[4+col], m[8+col], m[12+col]
						rows[col] = m0 + m1 + m2
						rows[4+col] = m1 - m2 - m3
					}
					var y00, y01, y10, y11 float32
					y00 = rows[0] + rows[1] + rows[2]
					y01 = rows[1] - rows[2] - rows[3]
					y10 = rows[4] + rows[5] + rows[6]
					y11 = rows[5] - rows[6] - rows[7]

					oy, ox := ty*2, tx*2
					out.Set(n, oc, oy, ox, y00+bias[oc])
					if ox+1 < os.W {
						out.Set(n, oc, oy, ox+1, y01+bias[oc])
					}
					if oy+1 < os.H {
						out.Set(n, oc, oy+1, ox, y10+bias[oc])
						if ox+1 < os.W {
							out.Set(n, oc, oy+1, ox+1, y11+bias[oc])
						}
					}
				}
			}
		}
	})
	return out
}
