package kernels

import "repro/internal/gemm"

// ConvTuned is the per-layer execution config the autotuner
// (internal/tune) records for a tuned twin: how many output rows the
// lowering convs multiply per panel, the fan-out, and the GEMM config
// (micro-kernel, cache blocking) for the panel multiplies. The zero value reproduces the default path: one panel of
// every output row, multiplied by the default parallel GEMM at the
// engine's worker count.
type ConvTuned struct {
	// Panel is the panel argument of ConvIm2col and ConvIm2row: the
	// number of output rows lowered and multiplied per panel, so each
	// panel and the GEMM's packed buffers stay cache-resident. ConvIm2row
	// lowers and multiplies one panel of patch rows at a time under
	// either GEMM. ConvIm2col applies it to the packed GEMM only, whose
	// n-block width it becomes when Block sets none (the lowering
	// gathers straight into the packed panels); the naive GEMM
	// multiplies the whole matrix. A panel-tiled conv is bit-identical
	// to the unpaneled one (given the same Block config). <= 0 disables
	// tiling.
	Panel int
	// Workers is the fan-out of the kernel and of its GEMM strips; the
	// engine's convGemm states how 0 resolves.
	Workers int
	// Block configures the panel GEMMs (see gemm.BlockConfig).
	Block gemm.BlockConfig
}
