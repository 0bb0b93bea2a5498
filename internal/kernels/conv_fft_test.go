package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 16
	re := make([]float64, n)
	im := make([]float64, n)
	orig := make([]float64, n)
	for i := range re {
		re[i] = rng.Float64()*2 - 1
		orig[i] = re[i]
	}
	fft(re, im, false)
	fft(re, im, true)
	for i := range re {
		if math.Abs(re[i]-orig[i]) > 1e-9 || math.Abs(im[i]) > 1e-9 {
			t.Fatalf("round trip differs at %d: %v / %vi", i, re[i]-orig[i], im[i])
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of an impulse is flat ones.
	re := []float64{1, 0, 0, 0}
	im := make([]float64, 4)
	fft(re, im, false)
	for i := range re {
		if math.Abs(re[i]-1) > 1e-12 || math.Abs(im[i]) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v+%vi, want 1", i, re[i], im[i])
		}
	}
	// FFT of all-ones concentrates at DC.
	re2 := []float64{1, 1, 1, 1}
	im2 := make([]float64, 4)
	fft(re2, im2, false)
	if math.Abs(re2[0]-4) > 1e-12 {
		t.Errorf("DC = %v, want 4", re2[0])
	}
	for i := 1; i < 4; i++ {
		if math.Abs(re2[i]) > 1e-12 || math.Abs(im2[i]) > 1e-12 {
			t.Errorf("bin %d = %v+%vi, want 0", i, re2[i], im2[i])
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two length should panic")
		}
	}()
	fft(make([]float64, 3), make([]float64, 3), false)
}

func TestFFT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 8
	re := make([]float64, n*n)
	im := make([]float64, n*n)
	orig := make([]float64, n*n)
	for i := range re {
		re[i] = rng.Float64()
		orig[i] = re[i]
	}
	fft2D(re, im, n, false)
	fft2D(re, im, n, true)
	for i := range re {
		if math.Abs(re[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D round trip differs at %d", i)
		}
	}
}

func TestConvFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range convGeometries {
		if g.p.StrideH != 1 || g.p.StrideW != 1 {
			continue
		}
		x, w, b := randConv(rng, g.in, g.p)
		ref := ConvDirect(nil, x, w, b, g.p, 1)
		got := ConvFFT(nil, x, w, b, g.p, 1)
		if d := tensor.MaxAbsDiff(ref, got); d > convTol {
			t.Errorf("%s: fft conv max diff %g", g.name, d)
		}
	}
}

func TestConvFFT5x5Inception(t *testing.T) {
	// The Inception 5x5 branch geometry — the case FFT is offered for.
	rng := rand.New(rand.NewSource(4))
	in := tensor.Shape{N: 1, C: 16, H: 14, W: 14}
	p := nn.ConvParams{OutChannels: 8, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	x, w, b := randConv(rng, in, p)
	ref := ConvDirect(nil, x, w, b, p, 1)
	got := ConvFFT(nil, x, w, b, p, 1)
	if d := tensor.MaxAbsDiff(ref, got); d > convTol {
		t.Errorf("5x5 fft conv max diff %g", d)
	}
}

func TestConvFFTRejectsStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("stride-2 FFT conv should panic")
		}
	}()
	p := nn.ConvParams{OutChannels: 1, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2}
	x, w, b := randConv(rand.New(rand.NewSource(1)), tensor.Shape{N: 1, C: 1, H: 8, W: 8}, p)
	ConvFFT(nil, x, w, b, p, 1)
}

func TestConvFFTProperty(t *testing.T) {
	f := func(ch, oc, k, hw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kernel := int(k%5) + 1
		size := kernel + int(hw%5)
		in := tensor.Shape{N: 1, C: int(ch%3) + 1, H: size, W: size}
		p := nn.ConvParams{
			OutChannels: int(oc%3) + 1,
			KernelH:     kernel, KernelW: kernel,
			StrideH: 1, StrideW: 1,
			PadH: int(k % 2), PadW: int(k % 2),
		}
		x, w, b := randConv(rng, in, p)
		return tensor.MaxAbsDiff(ConvDirect(nil, x, w, b, p, 1), ConvFFT(nil, x, w, b, p, 1)) <= convTol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
