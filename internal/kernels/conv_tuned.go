package kernels

import "repro/internal/gemm"

// ConvTuned is the per-layer execution config the autotuner
// (internal/tune) records for a tuned twin: how many output rows the
// lowering convs lower and multiply per panel, the fan-out, and the
// GEMM config (micro-kernel, cache blocking, worker override) for the
// panel multiplies. The zero value reproduces the default path: the
// whole lowered matrix materialized at once and multiplied by the
// default parallel GEMM at the engine's worker count.
type ConvTuned struct {
	// Panel is the panel argument of ConvIm2col and ConvIm2row: the
	// number of output rows lowered and multiplied per panel. Instead of
	// materializing the full (C*KH*KW) x (OH*OW) patch matrix —
	// megabytes for real zoo shapes — the lowering runs panel-by-panel
	// so each panel and the GEMM's packed buffers stay cache-resident.
	// A panel-tiled conv is bit-identical to the unpaneled one (given
	// the same Block config). <= 0 disables tiling.
	Panel int
	// Workers is the kernel fan-out and the default GEMM strip fan-out;
	// the engine's conv dispatch (execConv) states how 0 resolves.
	Workers int
	// Block configures the panel GEMMs (see gemm.BlockConfig). Its
	// Workers field, when set, overrides Workers for the GEMM only.
	Block gemm.BlockConfig
}
