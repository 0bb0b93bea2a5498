package kernels

import (
	"math"
	"math/bits"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// FFT-based convolution — NNPACK's algorithm for stride-1 layers with
// kernels too large for Winograd tiles (e.g. the 5x5 branches of
// Inception). The input and each filter are zero-padded to a common
// power-of-two grid, transformed with a radix-2 2-D FFT, multiplied
// point-wise (accumulating over input channels in the frequency
// domain), and transformed back. Complexity is O(C·HW·log HW) per
// output channel instead of O(C·HW·K²).

// fft performs an in-place radix-2 Cooley-Tukey FFT (inverse when
// inv). len(re) must be a power of two.
func fft(re, im []float64, inv bool) {
	n := len(re)
	if n != len(im) || n&(n-1) != 0 {
		panic("kernels: fft length must be a power of two")
	}
	// Bit-reversal permutation.
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := 1; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		if !inv {
			ang = -ang
		}
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += size {
			cr, ci := 1.0, 0.0
			half := size / 2
			for k := 0; k < half; k++ {
				i, j := start+k, start+k+half
				tr := re[j]*cr - im[j]*ci
				ti := re[j]*ci + im[j]*cr
				re[j], im[j] = re[i]-tr, im[i]-ti
				re[i], im[i] = re[i]+tr, im[i]+ti
				cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
			}
		}
	}
	if inv {
		for i := range re {
			re[i] /= float64(n)
			im[i] /= float64(n)
		}
	}
}

// fft2D transforms an n x n grid (row-major) in place.
func fft2D(re, im []float64, n int, inv bool) {
	// Rows.
	for r := 0; r < n; r++ {
		fft(re[r*n:(r+1)*n], im[r*n:(r+1)*n], inv)
	}
	// Columns (gather/scatter through a scratch line).
	colRe := make([]float64, n)
	colIm := make([]float64, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			colRe[r], colIm[r] = re[r*n+c], im[r*n+c]
		}
		fft(colRe, colIm, inv)
		for r := 0; r < n; r++ {
			re[r*n+c], im[r*n+c] = colRe[r], colIm[r]
		}
	}
}

// nextPow2 returns the smallest power of two >= v.
func nextPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// ConvFFT computes a dense stride-1 convolution via 2-D FFT. Panics on
// stride > 1 (the frequency-domain product computes a full correlation
// at stride 1; the registry never selects it otherwise). The
// per-channel input transforms and the per-output-channel
// frequency-domain accumulations are partitioned across workers
// goroutines. Input spectra are computed into exclusive slots and
// shared read-only; each worker owns a contiguous output-channel chunk
// (boundaries depend only on the shape and worker count) with its own
// scratch grids, so results are bit-identical at any worker count.
func ConvFFT(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvFFT requires NCHW input")
	}
	if p.StrideH != 1 || p.StrideW != 1 {
		panic("kernels: ConvFFT supports only stride-1 convolutions")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()

	// Grid large enough for the padded input and the linear (not
	// circular) correlation tail.
	n := nextPow2(maxOf(s.H+2*p.PadH, s.W+2*p.PadW, os.H+p.KernelH, os.W+p.KernelW))
	grid := n * n

	// Pre-transform every input channel once per sample.
	for b := 0; b < s.N; b++ {
		inRe := make([][]float64, s.C)
		inIm := make([][]float64, s.C)
		parFor(s.C, workers, func(c int) {
			re := make([]float64, grid)
			im := make([]float64, grid)
			for h := 0; h < s.H; h++ {
				for x := 0; x < s.W; x++ {
					re[(h+p.PadH)*n+(x+p.PadW)] = float64(in.At(b, c, h, x))
				}
			}
			fft2D(re, im, n, false)
			inRe[c], inIm[c] = re, im
		})

		parChunks(p.OutChannels, workers, func(lo, hi int) {
			kRe := make([]float64, grid)
			kIm := make([]float64, grid)
			accRe := make([]float64, grid)
			accIm := make([]float64, grid)
			for oc := lo; oc < hi; oc++ {
				for i := range accRe {
					accRe[i], accIm[i] = 0, 0
				}
				for c := 0; c < s.C; c++ {
					// Flipped kernel makes the circular convolution a
					// correlation.
					for i := range kRe {
						kRe[i], kIm[i] = 0, 0
					}
					for r := 0; r < p.KernelH; r++ {
						for q := 0; q < p.KernelW; q++ {
							v := float64(w[((oc*s.C+c)*p.KernelH+r)*p.KernelW+q])
							rr := (n - r) % n
							qq := (n - q) % n
							kRe[rr*n+qq] = v
						}
					}
					fft2D(kRe, kIm, n, false)
					ir, ii := inRe[c], inIm[c]
					for i := 0; i < grid; i++ {
						accRe[i] += ir[i]*kRe[i] - ii[i]*kIm[i]
						accIm[i] += ir[i]*kIm[i] + ii[i]*kRe[i]
					}
				}
				fft2D(accRe, accIm, n, true)
				for oh := 0; oh < os.H; oh++ {
					for ow := 0; ow < os.W; ow++ {
						out.Set(b, oc, oh, ow, float32(accRe[oh*n+ow])+bias[oc])
					}
				}
			}
		})
	}
	return out
}

func maxOf(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
