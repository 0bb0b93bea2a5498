// Package compat models the incompatibility penalties of §IV-A and
// Fig. 3 of the paper: when consecutive layers are implemented by
// primitives that disagree on tensor layout a conversion layer must
// run, and when they sit on different processors the activation must
// be copied across. These penalties are what make the per-layer-greedy
// choice globally sub-optimal (Fig. 1) and are exactly what the
// Q-learning agent must learn to look past.
package compat

import (
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
)

// Penalty returns the cost, in seconds, of feeding producer's output
// (computed by primitive from) into consumer (computed by primitive
// to) on the given platform:
//
//   - different processors: one CPU<->GPU transfer of the activation,
//     plus a layout conversion on the destination processor if the
//     layouts also disagree;
//   - same processor, different layouts: one conversion there;
//   - otherwise free.
func Penalty(pl *platform.Platform, producer *nn.Layer, from *primitives.Primitive, to *primitives.Primitive) float64 {
	bytes := int64(producer.OutShape.Bytes())
	var cost float64
	if from.Proc != to.Proc {
		cost += pl.TransferLatency(bytes)
	}
	if from.Layout != to.Layout {
		cost += pl.ConversionLatency(bytes, to.Proc)
	}
	return cost
}

// InputPrimitive is the pseudo-primitive describing how the network
// input arrives: on the CPU, in NCHW order (the host format). The
// first layer's primitive pays a penalty against it like any other
// edge.
func InputPrimitive() *primitives.Primitive { return primitives.PVanilla }

// OutputPenalty returns the cost of delivering the final layer's
// output back to the host (CPU, NCHW): a transfer if the last
// primitive ran on the GPU, plus a conversion if it produced NHWC.
// This return cost is what makes an all-GPU LeNet lose to the pure
// CPU configuration.
func OutputPenalty(pl *platform.Platform, last *nn.Layer, p *primitives.Primitive) float64 {
	bytes := int64(last.OutShape.Bytes())
	var cost float64
	if p.Proc != primitives.CPU {
		cost += pl.TransferLatency(bytes)
	}
	if p.Layout != InputPrimitive().Layout {
		cost += pl.ConversionLatency(bytes, primitives.CPU)
	}
	return cost
}

// EnergyPenalty is Penalty's energy counterpart: the joules spent on
// the transfer and/or conversion an incompatible edge requires.
func EnergyPenalty(pl *platform.Platform, producer *nn.Layer, from *primitives.Primitive, to *primitives.Primitive) float64 {
	bytes := int64(producer.OutShape.Bytes())
	var e float64
	if from.Proc != to.Proc {
		e += pl.TransferEnergy(bytes)
	}
	if from.Layout != to.Layout {
		e += pl.ConversionEnergy(bytes, to.Proc)
	}
	return e
}

// OutputEnergyPenalty is OutputPenalty's energy counterpart.
func OutputEnergyPenalty(pl *platform.Platform, last *nn.Layer, p *primitives.Primitive) float64 {
	bytes := int64(last.OutShape.Bytes())
	var e float64
	if p.Proc != primitives.CPU {
		e += pl.TransferEnergy(bytes)
	}
	if p.Layout != InputPrimitive().Layout {
		e += pl.ConversionEnergy(bytes, primitives.CPU)
	}
	return e
}
