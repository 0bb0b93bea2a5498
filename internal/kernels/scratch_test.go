package kernels

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestFusedIm2colOddWidth runs the pack-fused lowering where its panel
// walk is least regular: output planes of an odd number of pixels (so
// the last nr-wide panel is ragged and panels straddle output rows),
// wider than one default n-block, at stride 1 and 2, under every
// registered micro-kernel — the pure-Go fallback QSDNN_DISABLE_SIMD
// selects included. Each must reproduce the frozen im2col reference
// bit for bit, from NaN-filled scratch.
func TestFusedIm2colOddWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, g := range []struct {
		in tensor.Shape
		p  nn.ConvParams
	}{
		{tensor.Shape{N: 1, C: 3, H: 37, W: 41}, nn.ConvParams{OutChannels: 5, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{tensor.Shape{N: 2, C: 3, H: 45, W: 33}, nn.ConvParams{OutChannels: 9, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{tensor.Shape{N: 1, C: 2, H: 23, W: 7}, nn.ConvParams{OutChannels: 4, KernelH: 5, KernelW: 3, StrideH: 1, StrideW: 2, PadH: 2, PadW: 0}},
	} {
		x, w, b := randConv(rng, g.in, g.p)
		os := convOutShape(g.in, g.p.OutChannels, g.p)
		name := fmt.Sprintf("%v %dx%d/s%d", g.in, g.p.KernelH, g.p.KernelW, g.p.StrideW)
		if os.H*os.W%2 == 0 {
			t.Fatalf("%s: %d output pixels, want an odd count", name, os.H*os.W)
		}
		want := refConvIm2colPar(x, w, b, g.p, packed, 1)
		wantKn := refConvKn2rowPar(x, w, b, g.p, packed, 1)
		for _, kn := range append([]string{""}, gemm.KernelVariants()...) {
			mul := Gemm{Packed: true, Block: gemm.BlockConfig{Kernel: kn}}
			got := ConvIm2col(nil, x, w, b, g.p, mul, 1, 0, nanSlice(ConvIm2colScratch(g.in, g.p, mul, 1, 0)))
			if !tensorsBitEqual(want, got) {
				t.Errorf("%s kernel %q: fused ConvIm2col differs from the reference", name, kn)
			}
			got = ConvKn2row(nil, x, w, b, g.p, mul, 1, nanSlice(ConvKn2rowScratch(g.in, g.p, mul, 1)))
			if !tensorsBitEqual(wantKn, got) {
				t.Errorf("%s kernel %q: fused ConvKn2row differs from the reference", name, kn)
			}
		}
	}
}

// TestFusedLoweringColumnSplit runs the pack-fused im2col and kn2row
// at 2 and 3 workers on shapes whose products are above the GEMM's flop
// floor and span many n-blocks — mobilenet's first conv (im2col) and a
// 64-channel 3x3 (both) — so each worker gathers and multiplies its own
// columns. Each must reproduce the frozen 1-worker references bit for
// bit, from NaN-filled scratch.
func TestFusedLoweringColumnSplit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(93))
	for _, g := range []struct {
		in tensor.Shape
		p  nn.ConvParams
	}{
		{tensor.Shape{N: 1, C: 3, H: 224, W: 224}, nn.ConvParams{OutChannels: 32, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{tensor.Shape{N: 1, C: 64, H: 56, W: 56}, nn.ConvParams{OutChannels: 64, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	} {
		x, w, b := randConv(rng, g.in, g.p)
		want := refConvIm2colPar(x, w, b, g.p, packed, 1)
		wantKn := refConvKn2rowPar(x, w, b, g.p, packed, 1)
		for _, workers := range []int{2, 3} {
			got := ConvIm2col(nil, x, w, b, g.p, Packed, workers, 0, nanSlice(ConvIm2colScratch(g.in, g.p, Packed, workers, 0)))
			if !tensorsBitEqual(want, got) {
				t.Errorf("%v workers=%d: fused ConvIm2col differs from the reference", g.in, workers)
			}
			got = ConvKn2row(nil, x, w, b, g.p, Packed, workers, nanSlice(ConvKn2rowScratch(g.in, g.p, Packed, workers)))
			if !tensorsBitEqual(wantKn, got) {
				t.Errorf("%v workers=%d: fused ConvKn2row differs from the reference", g.in, workers)
			}
		}
	}
}

// TestShortKernelScratchPanics: every kernel that takes scratch
// rejects one element too few, the way a wrong-sized dst is rejected.
func TestShortKernelScratchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	s := tensor.Shape{N: 1, C: 3, H: 9, W: 9}
	p := nn.ConvParams{OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x, w, b := randConv(rng, s, p)
	gs, gp := tensor.Shape{N: 1, C: 4, H: 9, W: 9}, p
	gp.Groups = 2
	gx, gw, gb := randConv(rng, gs, gp)
	csr := FromDense(p.OutChannels, s.C*9, w, 0)
	short := func(n int) []float32 { return make([]float32, n-1) }
	cases := map[string]func(){
		"ConvSparse":   func() { ConvSparse(nil, x, csr, b, p, short(ConvSparseScratch(s, p))) },
		"ConvWinograd": func() { ConvWinograd(nil, x, w, b, p, 1, short(ConvWinogradScratch(s, p))) },
		"ConvIm2col/panel/true": func() {
			ConvIm2col(nil, x, w, b, p, Packed, 1, 2, short(ConvIm2colScratch(s, p, Packed, 1, 2)))
		},
	}
	for _, mul := range []Gemm{Naive, Packed} {
		cases[fmt.Sprintf("ConvIm2col/%v", mul.Packed)] = func() {
			ConvIm2col(nil, x, w, b, p, mul, 1, 0, short(ConvIm2colScratch(s, p, mul, 1, 0)))
		}
		cases[fmt.Sprintf("ConvIm2col/grouped/%v", mul.Packed)] = func() {
			ConvIm2col(nil, gx, gw, gb, gp, mul, 1, 0, short(ConvIm2colScratch(gs, gp, mul, 1, 0)))
		}
		cases[fmt.Sprintf("ConvIm2row/%v", mul.Packed)] = func() {
			ConvIm2row(nil, x, w, b, p, mul, 1, 0, short(ConvIm2rowScratch(s, p, mul, 1, 0)))
		}
		cases[fmt.Sprintf("ConvKn2row/%v", mul.Packed)] = func() {
			ConvKn2row(nil, x, w, b, p, mul, 1, short(ConvKn2rowScratch(s, p, mul, 1)))
		}
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "scratch") {
					t.Errorf("recovered %v, want a scratch panic", r)
				}
			}()
			run()
		})
	}
}

// FuzzScratchLoweringMatchesReference draws conv shapes wide enough
// that the output plane spans several default n-blocks, and a KC/NC
// block config, and checks ConvIm2col, ConvIm2row and ConvKn2row under
// the packed GEMM, and ConvKn2row under the naive one, whose gather
// fills its B whole — each run from NaN-filled scratch — against their
// frozen references bit for bit. It also runs ConvIm2col grouped one
// group per input channel against the per-group reference, and, on a
// 3x3 stride-1 window, ConvWinograd from NaN-filled scratch against its
// own run from fresh scratch.
func FuzzScratchLoweringMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(37), uint8(41), uint8(2), uint8(1), uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(20), uint8(63), uint8(0), uint8(2), uint8(7), uint8(19), int64(2))
	f.Add(uint8(4), uint8(9), uint8(5), uint8(4), uint8(0), uint8(3), uint8(0), int64(3))
	f.Add(uint8(2), uint8(9), uint8(13), uint8(2), uint8(0), uint8(0), uint8(0), int64(4))
	// A 5x5 window on an odd-width plane: the naive kn2row gathers 25
	// shifted views, each with padding on every side, into one B.
	f.Add(uint8(2), uint8(10), uint8(44), uint8(4), uint8(0), uint8(0), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, cc, hh, ww, kern, stride, kc, nc uint8, seed int64) {
		s := tensor.Shape{N: 1, C: int(cc%4) + 1, H: int(hh%48) + 1, W: int(ww%64) + 1}
		k := int(kern%5) + 1
		p := nn.ConvParams{OutChannels: 3, KernelH: k, KernelW: k, StrideH: int(stride%2) + 1, StrideW: int(stride%2) + 1, PadH: k / 2, PadW: k / 2}
		if s.H+2*p.PadH < k || s.W+2*p.PadW < k {
			t.Skip("window larger than the padded input")
		}
		blk := gemm.BlockConfig{KC: int(kc % 32), NC: int(nc) * 8}
		x, w, b := randConv(rand.New(rand.NewSource(seed)), s, p)
		cfg := ConvTuned{Block: blk, Workers: 1}
		mul := Gemm{Packed: true, Block: blk}
		ref, _ := refTunedGemm(cfg)
		if got := ConvIm2col(nil, x, w, b, p, mul, 1, 0, nanSlice(ConvIm2colScratch(s, p, mul, 1, 0))); !tensorsBitEqual(refConvIm2colPar(x, w, b, p, ref, 1), got) {
			t.Errorf("%v %+v %+v: ConvIm2col differs from the reference", s, p, blk)
		}
		if got := ConvIm2row(nil, x, w, b, p, mul, 1, 0, nanSlice(ConvIm2rowScratch(s, p, mul, 1, 0))); !tensorsBitEqual(refConvIm2rowPar(x, w, b, p, ref, 1), got) {
			t.Errorf("%v %+v %+v: ConvIm2row differs from the reference", s, p, blk)
		}
		if got := ConvKn2row(nil, x, w, b, p, mul, 1, nanSlice(ConvKn2rowScratch(s, p, mul, 1))); !tensorsBitEqual(refConvKn2rowPar(x, w, b, p, ref, 1), got) {
			t.Errorf("%v %+v %+v: ConvKn2row differs from the reference", s, p, blk)
		}
		if got := ConvKn2row(nil, x, w, b, p, Naive, 1, nanSlice(ConvKn2rowScratch(s, p, Naive, 1))); !tensorsBitEqual(refConvKn2rowPar(x, w, b, p, gemm.Naive, 1), got) {
			t.Errorf("%v %+v: naive ConvKn2row differs from the reference", s, p)
		}
		if gp := p; s.C > 1 {
			gp.Groups, gp.OutChannels = s.C, 2*s.C
			gx, gw, gb := randConv(rand.New(rand.NewSource(seed)), s, gp)
			if got := ConvIm2col(nil, gx, gw, gb, gp, mul, 1, 0, nanSlice(ConvIm2colScratch(s, gp, mul, 1, 0))); !tensorsBitEqual(perGroupIm2col(gx, gw, gb, gp, mul), got) {
				t.Errorf("%v %+v %+v: grouped ConvIm2col differs from the per-group reference", s, gp, blk)
			}
		}
		if k == 3 && p.StrideH == 1 {
			if got := ConvWinograd(nil, x, w, b, p, 1, nanSlice(ConvWinogradScratch(s, p))); !tensorsBitEqual(ConvWinograd(nil, x, w, b, p, 1, nil), got) {
				t.Errorf("%v %+v: ConvWinograd from NaN-filled scratch differs from fresh scratch", s, p)
			}
		}
	})
}

// TestKn2rowAllocsPerCall: with its output and scratch planned and one
// worker, ConvKn2row allocates per call, not per kernel offset. Under
// either GEMM a 5x5 conv, 25 gathered offsets, makes no more
// allocations than a strided 1x1 conv of the same channels, one
// gathered offset, and a pointwise conv, which reads its input in
// place, makes none.
func TestKn2rowAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(94))
	s := tensor.Shape{N: 1, C: 16, H: 16, W: 16}
	allocs := func(p nn.ConvParams, mul Gemm) float64 {
		x, w, b := randConv(rng, s, p)
		dst := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
		scratch := make([]float32, ConvKn2rowScratch(s, p, mul, 1))
		return testing.AllocsPerRun(10, func() { ConvKn2row(dst, x, w, b, p, mul, 1, scratch) })
	}
	for _, mul := range []Gemm{Naive, Packed} {
		one := allocs(nn.ConvParams{OutChannels: 16, KernelH: 1, KernelW: 1, StrideH: 2, StrideW: 2}, mul)
		five := allocs(nn.ConvParams{OutChannels: 16, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}, mul)
		if five > one {
			t.Errorf("packed=%v: a 5x5 ConvKn2row makes %v allocations per call, more than the %v of a strided 1x1", mul.Packed, five, one)
		}
		if pw := allocs(nn.ConvParams{OutChannels: 16, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}, mul); pw > 0 {
			t.Errorf("packed=%v: a pointwise ConvKn2row makes %v allocations per call, want none", mul.Packed, pw)
		}
	}
}
