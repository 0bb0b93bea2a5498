package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// Source adapts the real engine to the profiling interface, so the
// whole QS-DNN pipeline can run on genuinely measured host-CPU
// latencies instead of the platform model. A canonical all-Vanilla
// inference is run once to cache every layer's input activations;
// MeasureSample then times individual (layer, primitive) executions on
// that cached data, which is equivalent to the paper's whole-network
// substitution runs but avoids re-executing unrelated layers.
type Source struct {
	eng  *Engine
	acts []*tensor.Tensor
}

// NewSource runs the canonical inference through Run's own body and
// returns a profiling source. The input must match the network input
// shape; NewSource never writes to it.
func NewSource(e *Engine, input *tensor.Tensor) (*Source, error) {
	s := &Source{eng: e, acts: make([]*tensor.Tensor, e.Net.Len())}
	// Copies, because the arena reuses each activation's memory once
	// its consumers have read it.
	_, err := e.run(e.VanillaAssignment(), input, func(i int, out *tensor.Tensor) {
		s.acts[i] = out.Clone()
	})
	if err != nil {
		return nil, err
	}
	s.acts[0] = tensor.Convert(tensor.New(input.Shape(), tensor.NCHW), input)
	return s, nil
}

// Engine returns the engine the source profiles on — the autotuner
// needs it to install tuned-variant configs after measuring.
func (s *Source) Engine() *Engine { return s.eng }

// MeasureSample times one execution of layer i under primitive p on
// the cached activations, under the config SetTuned recorded for
// (i, p), as Run executes it. The sample index is accepted for
// interface compatibility; real time naturally varies between calls. A
// primitive that cannot execute the layer yields an error, which lets
// profile.RunContext retry it or drop it from the candidate set.
func (s *Source) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	return s.measure(ctx, "profiling", i, p, s.eng.tuned[tunedKey{i, p.Idx}])
}

// measure is the one timed body behind MeasureSample and MeasureTuned:
// it times one execution of layer i under p and cfg on the
// cached inputs, converted to p's layout, with the memory the compiled
// step runs with allocated before the timer starts, as Run allocates
// its arena before its per-step timers: a fresh output, the step's
// scratch, and for the kinds inPlace admits a private copy of the first
// input that the kernel overwrites. verb names the caller in errors.
func (s *Source) measure(ctx context.Context, verb string, i int, p *primitives.Primitive, cfg kernels.ConvTuned) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e := s.eng
	l := e.Net.Layers[i]
	inputs := make([]*tensor.Tensor, len(l.Inputs))
	for k, src := range l.Inputs {
		inputs[k] = s.acts[src].ToLayout(p.Layout)
	}
	var dst *tensor.Tensor
	switch {
	case l.Kind == nn.OpDropout:
	case inPlace(l.Kind):
		dst = inputs[0].Clone() // the cached activation must stay as it is
		inputs[0] = dst
	default:
		dst = tensor.New(l.OutShape, p.Layout)
	}
	scratch := make([]float32, e.scratchLen(l, p, cfg))
	var err error
	sec := timed(func() { _, err = e.execCfg(dst, i, l, p, inputs, cfg, scratch) })
	if err != nil {
		return 0, fmt.Errorf("%s %s with %s: %w", verb, l.Name, p.Name, err)
	}
	return sec, nil
}

// MeasureEdgePenalty times the real layout conversion between the
// producer's output under fp and the consumer's required layout under
// tp, into a slot allocated before the timer, as Run converts into an
// arena slot. Both primitives run on the CPU here, so no transfer cost
// exists.
func (s *Source) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.convert(producer, fp.Layout, tp.Layout), nil
}

// MeasureOutputPenalty times the conversion of the output layer's
// activation back to the host NCHW format, into a tensor allocated
// before the timer.
func (s *Source) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.convert(output, p.Layout, tensor.NCHW), nil
}

// convert times tensor.Convert of layer i's cached activation, held in
// layout from, into a fresh tensor in layout to; equal layouts cost 0.
func (s *Source) convert(i int, from, to tensor.Layout) float64 {
	if from == to {
		return 0
	}
	src := s.acts[i].ToLayout(from)
	dst := tensor.New(src.Shape(), to)
	return timed(func() { tensor.Convert(dst, src) })
}

// timed returns fn's wall time in seconds. It is the one timer behind
// every Measure method, a variable so that a test can observe what
// runs inside it.
var timed = func(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// The Measure* methods satisfy profile.Source structurally;
// engine_test asserts it without adding a package dependency here.
