package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kernels"
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
// the cached activations; a tuned twin runs as its base under the
// config SetTuned recorded for it. The sample index is accepted for
// interface compatibility; real time naturally varies between calls. A
// primitive that cannot execute the layer yields an error, which lets
// profile.RunContext retry it or drop it from the candidate set.
func (s *Source) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	var cfg kernels.ConvTuned
	if p.Tuned {
		cfg = s.eng.tuned[tunedKey{i, p.Idx}]
		p = primitives.ByID(p.Base)
	}
	return s.measure(ctx, "profiling", i, p, cfg)
}

// measure is the one timed body behind MeasureSample and MeasureTuned:
// convert layer i's cached inputs to p's layout, then time one
// execution of the non-twin p under cfg. verb names the caller in
// errors.
func (s *Source) measure(ctx context.Context, verb string, i int, p *primitives.Primitive, cfg kernels.ConvTuned) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	l := s.eng.Net.Layers[i]
	inputs := make([]*tensor.Tensor, len(l.Inputs))
	for k, src := range l.Inputs {
		inputs[k] = s.acts[src].ToLayout(p.Layout)
	}
	t0 := time.Now()
	if _, err := s.eng.execCfg(nil, i, l, p, inputs, cfg, nil); err != nil {
		return 0, fmt.Errorf("%s %s with %s: %w", verb, l.Name, p.Name, err)
	}
	return time.Since(t0).Seconds(), nil
}

// MeasureEdgePenalty times the real layout conversion between the
// producer's output under fp and the consumer's required layout under
// tp. Both primitives run on the CPU here, so no transfer cost exists.
func (s *Source) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if fp.Layout == tp.Layout {
		return 0, nil
	}
	src := s.acts[producer].ToLayout(fp.Layout)
	t0 := time.Now()
	src.ToLayout(tp.Layout)
	return time.Since(t0).Seconds(), nil
}

// MeasureOutputPenalty times the conversion of the output layer's
// activation back to the host NCHW format.
func (s *Source) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if p.Layout == tensor.NCHW {
		return 0, nil
	}
	src := s.acts[output].ToLayout(p.Layout)
	t0 := time.Now()
	src.ToLayout(tensor.NCHW)
	return time.Since(t0).Seconds(), nil
}

// The Measure* methods satisfy profile.Source structurally;
// engine_test asserts it without adding a package dependency here.
