package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// runTuned runs the three lowering convs under cfg the way the engine's
// conv dispatch does, with a fallback fan-out of 1.
func runTuned(x *tensor.Tensor, w, b []float32, p nn.ConvParams, cfg ConvTuned) (col, row, kn *tensor.Tensor) {
	mul, workers := refTunedGemm(cfg)
	return ConvIm2col(nil, x, w, b, p, mul, workers, cfg.Panel),
		ConvIm2row(nil, x, w, b, p, mul, workers, cfg.Panel),
		ConvKn2row(nil, x, w, b, p, mul, workers)
}

// TestConvTunedZeroConfigBitIdentical pins the golden-safety contract:
// a zero-Block ConvTuned config is bit-identical to the default
// lowering paths at every Panel and Workers setting, because panel
// tiling only splits GEMM calls between output columns.
func TestConvTunedZeroConfigBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, g := range convGeometries {
		x, w, b := randConv(rng, g.in, g.p)
		refCol := ConvIm2col(nil, x, w, b, g.p, packed, 1, 0)
		refRow := ConvIm2row(nil, x, w, b, g.p, packed, 1, 0)
		refKn := ConvKn2row(nil, x, w, b, g.p, packed, 1)
		for _, panel := range []int{0, 1, 2, 3, 100} {
			for _, workers := range []int{1, 3} {
				col, row, kn := runTuned(x, w, b, g.p, ConvTuned{Panel: panel, Workers: workers})
				if !tensorsBitEqual(refCol, col) {
					t.Errorf("%s im2col panel=%d workers=%d: not bit-identical to default", g.name, panel, workers)
				}
				if !tensorsBitEqual(refRow, row) {
					t.Errorf("%s im2row panel=%d workers=%d: not bit-identical to default", g.name, panel, workers)
				}
				if !tensorsBitEqual(refKn, kn) {
					t.Errorf("%s kn2row workers=%d: not bit-identical to default", g.name, workers)
				}
			}
		}
	}
}

// TestConvTunedBlockedMatchesDirect: blocked GEMM configs stay within
// float32 tolerance of the direct convolution on every geometry.
func TestConvTunedBlockedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	cfgs := []ConvTuned{
		{Block: gemm.BlockConfig{KC: 8}},
		{Panel: 2, Block: gemm.BlockConfig{KC: 8, NC: 16}},
		{Panel: 3, Workers: 2, Block: gemm.BlockConfig{NC: 8, Workers: 2}},
		{Panel: 1, Block: gemm.BlockConfig{Kernel: "go-4x8", KC: 16}},
	}
	for _, g := range convGeometries {
		x, w, b := randConv(rng, g.in, g.p)
		ref := ConvDirect(nil, x, w, b, g.p, 1)
		for i, cfg := range cfgs {
			col, row, kn := runTuned(x, w, b, g.p, cfg)
			for name, got := range map[string]*tensor.Tensor{"im2col": col, "im2row": row, "kn2row": kn} {
				if d := tensor.MaxAbsDiff(ref, got); d > convTol {
					t.Errorf("%s %s cfg#%d: max diff %g > %g", g.name, name, i, d, convTol)
				}
			}
		}
	}
}

// TestConvTunedWorkerInvariance: a tuned config (including blocked
// GEMMs) produces bit-identical output at any worker count — the
// contract that keeps tuner measurements valid for serving at a
// different fan-out.
func TestConvTunedWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := convGeometries[2] // strided 3x3 with padding
	x, w, b := randConv(rng, g.in, g.p)
	cfgs := []ConvTuned{
		{Panel: 2, Block: gemm.BlockConfig{KC: 8, NC: 8}},
		{Panel: 3, Block: gemm.BlockConfig{KC: 5}},
	}
	for i, base := range cfgs {
		base.Workers = 1
		refCol, refRow, refKn := runTuned(x, w, b, g.p, base)
		for _, workers := range []int{2, 4, 8} {
			cfg := base
			cfg.Workers = workers
			col, row, kn := runTuned(x, w, b, g.p, cfg)
			if !tensorsBitEqual(refCol, col) {
				t.Errorf("cfg#%d im2col workers=%d: not bit-identical to workers=1", i, workers)
			}
			if !tensorsBitEqual(refRow, row) {
				t.Errorf("cfg#%d im2row workers=%d: not bit-identical to workers=1", i, workers)
			}
			if !tensorsBitEqual(refKn, kn) {
				t.Errorf("cfg#%d kn2row workers=%d: not bit-identical to workers=1", i, workers)
			}
		}
	}
}
