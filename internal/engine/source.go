package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/primitives"
	"repro/internal/tensor"
)

// Source adapts the real engine to the profiling interface, so the
// whole QS-DNN pipeline can run on genuinely measured host-CPU
// latencies instead of the platform model. A canonical all-Vanilla
// inference is run once to cache every layer's input activations;
// Sample then times individual (layer, primitive) executions on that
// cached data, which is equivalent to the paper's whole-network
// substitution runs but avoids re-executing unrelated layers.
type Source struct {
	eng  *Engine
	acts []*tensor.Tensor
}

// NewSource runs the canonical inference and returns a profiling
// source. The input must match the network input shape.
func NewSource(e *Engine, input *tensor.Tensor) (*Source, error) {
	net := e.Net
	if !input.Shape().Equal(net.InputShape) {
		return nil, fmt.Errorf("engine: input shape %v, want %v", input.Shape(), net.InputShape)
	}
	s := &Source{eng: e, acts: make([]*tensor.Tensor, net.Len())}
	s.acts[0] = input.ToLayout(tensor.NCHW)
	for i := 1; i < net.Len(); i++ {
		l := net.Layers[i]
		inputs := make([]*tensor.Tensor, len(l.Inputs))
		for k, src := range l.Inputs {
			inputs[k] = s.acts[src].ToLayout(tensor.NCHW)
		}
		out, err := e.exec(nil, i, l, primitives.PVanilla, inputs)
		if err != nil {
			return nil, err
		}
		s.acts[i] = out
	}
	return s, nil
}

// Engine returns the engine the source profiles on — the autotuner
// needs it to install tuned-variant configs after measuring.
func (s *Source) Engine() *Engine { return s.eng }

// Sample times one execution of layer i under primitive p on the
// cached activations. The sample index is accepted for interface
// compatibility; real time naturally varies between calls. Execution
// failures panic — prefer MeasureSample, which reports them as errors
// the fault-tolerant profiling layer can retry or degrade on.
func (s *Source) Sample(i int, p *primitives.Primitive, sample int) float64 {
	v, err := s.MeasureSample(context.Background(), i, p, sample)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	return v
}

// MeasureSample is the fallible twin of Sample: a primitive that
// cannot execute the layer yields an error instead of a panic, which
// lets profile.RunFallible retry it or drop it from the candidate set.
func (s *Source) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	_ = sample
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	l := s.eng.Net.Layers[i]
	inputs := make([]*tensor.Tensor, len(l.Inputs))
	for k, src := range l.Inputs {
		inputs[k] = s.acts[src].ToLayout(p.Layout)
	}
	t0 := time.Now()
	if _, err := s.eng.exec(nil, i, l, p, inputs); err != nil {
		return 0, fmt.Errorf("profiling %s with %s: %w", l.Name, p.Name, err)
	}
	return time.Since(t0).Seconds(), nil
}

// MeasureEdgePenalty is the fallible, cancellable twin of EdgePenalty.
func (s *Source) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.EdgePenalty(producer, fp, tp), nil
}

// MeasureOutputPenalty is the fallible, cancellable twin of
// OutputPenalty.
func (s *Source) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.OutputPenalty(output, p), nil
}

// EdgePenalty times the real layout conversion between the producer's
// output under fp and the consumer's required layout under tp. Both
// primitives run on the CPU here, so no transfer cost exists.
func (s *Source) EdgePenalty(producer int, fp, tp *primitives.Primitive) float64 {
	if fp.Layout == tp.Layout {
		return 0
	}
	src := s.acts[producer].ToLayout(fp.Layout)
	t0 := time.Now()
	src.ToLayout(tp.Layout)
	return time.Since(t0).Seconds()
}

// The fallible methods satisfy profile.FallibleSource structurally;
// engine_test asserts it without adding a package dependency here.

// OutputPenalty times the conversion of the output layer's activation
// back to the host NCHW format.
func (s *Source) OutputPenalty(output int, p *primitives.Primitive) float64 {
	if p.Layout == tensor.NCHW {
		return 0
	}
	src := s.acts[output].ToLayout(p.Layout)
	t0 := time.Now()
	src.ToLayout(tensor.NCHW)
	return time.Since(t0).Seconds()
}
