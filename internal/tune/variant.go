// Package tune is the per-(layer, primitive) kernel autotuner: it
// generates parameterized variants of the packed GEMM/conv paths —
// cache-block sizes, micro-kernel choice from the runtime dispatch
// registry, lowering panel widths, worker counts — ranks them with a
// small learned surrogate cost model trained online from measured
// samples, measures only a shortlist through the robust profiling
// series, and writes each winner's time onto its base primitive's LUT
// entry, so the existing Q-learning/DP/PBQP searches price the tuned
// kernels with no search code aware of tuning. Tunings persist durably (internal/store
// envelope) so serving and batch runs reuse them across processes.
//
// This is the inner tuning loop of the paper's outer primitive
// search: the outer loop picks among implementations, the inner loop
// (de Prado et al.'s Cortex-A DSE, PrIM-style tiling search) picks how
// each implementation runs.
package tune

import (
	"fmt"
	"math"

	"repro/internal/gemm"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/pool"
	"repro/internal/primitives"
)

// Variant is one point of the per-layer tuning space: the serializable
// form of a kernels.ConvTuned config. The zero Variant is the default
// pipeline (runtime-dispatched kernel, no cache blocking, no panel
// tiling, inherited worker count).
type Variant struct {
	// Kernel names a micro-kernel from the dispatch registry; "" is
	// the runtime-dispatched choice.
	Kernel string `json:"kernel,omitempty"`
	// KC is the GEMM k-blocking depth; 0 means the full reduction.
	KC int `json:"kc,omitempty"`
	// NC is the GEMM n-blocking width; 0 means the full width.
	NC int `json:"nc,omitempty"`
	// Panel is the lowering panel height in output rows; 0 disables
	// panel tiling.
	Panel int `json:"panel,omitempty"`
	// Workers overrides the execution fan-out; 0 inherits the
	// engine's.
	Workers int `json:"workers,omitempty"`
}

// IsDefault reports whether the variant is the default pipeline.
func (v Variant) IsDefault() bool { return v == Variant{} }

// Conv converts the variant to the kernels-layer execution config.
func (v Variant) Conv() kernels.ConvTuned {
	return kernels.ConvTuned{
		Panel:   v.Panel,
		Workers: v.Workers,
		Block:   gemm.BlockConfig{Kernel: v.Kernel, KC: v.KC, NC: v.NC},
	}
}

// String is the stable human-readable key ("default" for the zero
// variant).
func (v Variant) String() string {
	if v.IsDefault() {
		return "default"
	}
	k := v.Kernel
	if k == "" {
		k = "auto"
	}
	return fmt.Sprintf("%s/kc%d/nc%d/p%d/w%d", k, v.KC, v.NC, v.Panel, v.Workers)
}

// valid rejects variants a forged cache could smuggle in: negative
// knobs or absurd magnitudes. Unknown kernel names are deliberately
// allowed — the gemm layer degrades them to the dispatched kernel.
func (v Variant) valid() bool {
	const limit = 1 << 20
	return v.KC >= 0 && v.KC <= limit &&
		v.NC >= 0 && v.NC <= limit &&
		v.Panel >= 0 && v.Panel <= limit &&
		v.Workers >= 0 && v.Workers <= 4096 &&
		len(v.Kernel) <= 64
}

// gemmDims returns the (m, n, k) of the GEMM the base lowering runs
// for the layer (kn2row's per-offset rank-C multiplies report k = C).
func gemmDims(l *nn.Layer, base *primitives.Primitive) (m, n, k int) {
	oc := l.Conv.OutChannels
	spatial := l.OutShape.H * l.OutShape.W
	ckk := l.InShape.C * l.Conv.KernelH * l.Conv.KernelW
	switch base.Lower {
	case primitives.Im2row:
		return spatial, oc, ckk
	case primitives.Kn2row:
		return oc, spatial, l.InShape.C
	default: // im2col
		return oc, spatial, ckk
	}
}

// Space enumerates the tuning variants for (layer, base) in a fixed,
// deterministic order with the zero (default) variant first. Layers
// the tuner has nothing to offer (non-conv, depthwise) get nil. The
// grid adapts to the layer's GEMM dims — block sizes that exceed the
// problem collapse into the default and are skipped — and to the host
// (registered kernel variants, GOMAXPROCS). The dispatched kernel
// appears once, as "": under its own name it would run the same
// program, and the budget would measure it twice.
func Space(l *nn.Layer, base *primitives.Primitive) []Variant {
	if l.Kind != nn.OpConv {
		return nil
	}
	_, n, k := gemmDims(l, base)
	kernelGrid := []string{""}
	for _, name := range gemm.KernelVariants() {
		if name != gemm.ActiveKernel() {
			kernelGrid = append(kernelGrid, name)
		}
	}
	kcGrid := clampGrid([]int{0, 16, 32, 64, 128, 256}, k)
	ncGrid := clampGrid([]int{0, 32, 64, 128, 256}, n)
	panelGrid := []int{0}
	if base.Lower != primitives.Kn2row && l.Conv.GroupCount() == 1 {
		// Panel tiling applies to the materialized im2col/im2row
		// matrices only; kn2row and grouped convs never build one.
		panelGrid = clampGrid([]int{0, 1, 2, 4, 8}, l.OutShape.H)
	}
	workerGrid := []int{0}
	if procs := pool.DefaultWorkers(); procs > 1 {
		workerGrid = append(workerGrid, procs)
	}
	var out []Variant
	for _, w := range workerGrid {
		for _, kn := range kernelGrid {
			for _, kc := range kcGrid {
				for _, nc := range ncGrid {
					for _, p := range panelGrid {
						out = append(out, Variant{Kernel: kn, KC: kc, NC: nc, Panel: p, Workers: w})
					}
				}
			}
		}
	}
	return out
}

// clampGrid drops grid points that meet or exceed the problem size —
// they behave exactly like 0 (no blocking), so measuring them would
// waste budget on duplicates.
func clampGrid(grid []int, limit int) []int {
	out := grid[:0:0]
	for _, g := range grid {
		if g == 0 || g < limit {
			out = append(out, g)
		}
	}
	return out
}

// featureDim is the surrogate input width; see features.
const featureDim = 12

// features maps (layer shape, variant) to the surrogate's input
// vector. All entries are bounded and deterministic: log-compressed
// GEMM dims, blocking fractions (quadratic terms let the regressor
// model a cache-sweet-spot interior optimum), panel fraction, worker
// count, and the register-tile geometry of the chosen kernel.
func features(l *nn.Layer, base *primitives.Primitive, v Variant) []float64 {
	m, n, k := gemmDims(l, base)
	kcFrac := 1.0
	if v.KC > 0 && v.KC < k {
		kcFrac = float64(v.KC) / float64(k)
	}
	ncFrac := 1.0
	if v.NC > 0 && v.NC < n {
		ncFrac = float64(v.NC) / float64(n)
	}
	panelFrac := 1.0
	if v.Panel > 0 && v.Panel < l.OutShape.H {
		panelFrac = float64(v.Panel) / float64(l.OutShape.H)
	}
	mr, nr, ok := gemm.KernelShape(v.Kernel)
	dispatched := 0.0
	if !ok {
		// "" or unknown: the dispatched kernel runs, at its own shape.
		mr, nr, _ = gemm.KernelShape(gemm.ActiveKernel())
		dispatched = 1.0
	}
	workers := float64(v.Workers)
	if v.Workers <= 0 {
		workers = 1
	}
	return []float64{
		1,
		math.Log1p(float64(m)),
		math.Log1p(float64(n)),
		math.Log1p(float64(k)),
		kcFrac,
		kcFrac * kcFrac,
		ncFrac,
		ncFrac * ncFrac,
		panelFrac,
		math.Log2(workers + 1),
		math.Log2(float64(mr * nr)),
		dispatched,
	}
}
