package platform

import (
	"repro/internal/nn"
	"repro/internal/primitives"
)

// Energy model — the paper's §VII names "multi-objective search ... for
// problems related to inference of DNNs on constrained environments"
// as future work; this file provides the second objective. Energy is
// modeled as active power × time per step, with distinct power draws
// for the CPU core, the GPU and the interconnect. The GPU finishes
// compute-heavy layers sooner but burns several times the power, so
// latency-optimal and energy-optimal mappings genuinely differ, which
// is what makes the multi-objective search non-trivial.

// PowerSpec holds the active power draws in watts.
type PowerSpec struct {
	// CPUWatts is the single-core active power.
	CPUWatts float64
	// GPUWatts is the GPU active power under load.
	GPUWatts float64
	// TransferWatts is drawn while the interconnect moves data.
	TransferWatts float64
}

// DefaultPower returns TX2-class draws: a single A57 core ~1.5 W, the
// Pascal GPU ~9 W under load, the memory system ~2.5 W during copies.
func DefaultPower() PowerSpec {
	return PowerSpec{CPUWatts: 1.5, GPUWatts: 9, TransferWatts: 2.5}
}

// Power returns the platform's power spec (the default unless the
// platform overrides it).
func (pl *Platform) Power() PowerSpec {
	if pl.PowerSpec != (PowerSpec{}) {
		return pl.PowerSpec
	}
	return DefaultPower()
}

// LayerEnergy returns the modeled energy, in joules, of executing
// layer l with primitive p: the layer's latency times the executing
// processor's active power.
func (pl *Platform) LayerEnergy(l *nn.Layer, p *primitives.Primitive) float64 {
	return pl.Joules(pl.LayerLatency(l, p), p.Proc)
}

// ConversionEnergy returns the joules of a layout conversion on the
// given processor.
func (pl *Platform) ConversionEnergy(bytes int64, proc primitives.Processor) float64 {
	return pl.Joules(pl.ConversionLatency(bytes, proc), proc)
}

// Joules returns the energy of busying proc for the given seconds at
// its active power.
func (pl *Platform) Joules(seconds float64, proc primitives.Processor) float64 {
	pw := pl.Power()
	if proc == primitives.GPU {
		return seconds * pw.GPUWatts
	}
	return seconds * pw.CPUWatts
}

// TransferEnergy returns the joules of one CPU<->GPU copy.
func (pl *Platform) TransferEnergy(bytes int64) float64 {
	return pl.TransferLatency(bytes) * pl.Power().TransferWatts
}
