package kernels

import (
	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ConvTuned parameterizes the lowering-based convolution paths for the
// per-layer autotuner (internal/tune): how many output rows are lowered
// and multiplied per panel, the lowering fan-out, and the GEMM config
// (micro-kernel, cache blocking, worker override) for the panel
// multiplies. The zero value reproduces the default path: the whole
// lowered matrix materialized at once and multiplied by the default
// parallel GEMM.
type ConvTuned struct {
	// Panel is the number of output rows lowered and multiplied per
	// panel. Instead of materializing the full (C*KH*KW) x (OH*OW)
	// patch matrix — megabytes for real zoo shapes — the lowering runs
	// panel-by-panel so each panel and the GEMM's packed buffers stay
	// cache-resident. Panel tiling splits only the GEMM's n dimension:
	// every output element still accumulates its full k reduction in
	// one register sweep, so a panel-tiled conv is bit-identical to the
	// unpaneled one (given the same Block config). <= 0 disables
	// tiling.
	Panel int
	// Workers is the lowering/gather fan-out and the default GEMM strip
	// fan-out; <= 0 means 1.
	Workers int
	// Block configures the panel GEMMs (see gemm.BlockConfig). Its
	// Workers field, when set, overrides Workers for the GEMM only.
	Block gemm.BlockConfig
}

func (c ConvTuned) workers() int {
	if c.Workers <= 0 {
		return 1
	}
	return c.Workers
}

// mul returns the Gemm the panel multiplies run through.
func (c ConvTuned) mul() Gemm {
	w := c.workers()
	blk := c.Block
	return func(m, n, k int, a, b, cc []float32) {
		gemm.ParallelCfg(m, n, k, a, b, cc, w, blk)
	}
}

// ConvIm2colTuned is ConvIm2colPar under a ConvTuned config: the
// lowering and GEMM run panel-by-panel over blocks of output rows, and
// the GEMM runs through cfg.Block. With a zero Block the result is
// bit-identical to ConvIm2colPar at any Panel and Workers setting —
// panel tiling splits output columns between GEMM calls without
// changing any element's accumulation order.
func ConvIm2colTuned(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, cfg ConvTuned) *tensor.Tensor {
	return convIm2col(in, w, bias, p, cfg.mul(), cfg.workers(), cfg.Panel)
}

// ConvIm2rowTuned is ConvIm2rowPar under a ConvTuned config, with the
// same panel-tiling contract as ConvIm2colTuned: panels split the
// GEMM's m dimension (patch rows), each output element keeps its full
// k reduction, so a zero Block is bit-identical to ConvIm2rowPar at
// any Panel and Workers setting.
func ConvIm2rowTuned(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, cfg ConvTuned) *tensor.Tensor {
	return convIm2row(in, w, bias, p, cfg.mul(), cfg.workers(), cfg.Panel)
}

// ConvKn2rowTuned is ConvKn2rowPar under a ConvTuned config. Kn2row's
// lowering is already a sequence of rank-C GEMMs (one per kernel
// offset), so Panel has no effect here; the tunables are the gather
// fan-out and the GEMM config.
func ConvKn2rowTuned(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, cfg ConvTuned) *tensor.Tensor {
	return ConvKn2rowPar(in, w, bias, p, cfg.mul(), cfg.workers())
}
