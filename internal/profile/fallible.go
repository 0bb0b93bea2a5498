package profile

import (
	"context"

	"repro/internal/lut"
	"repro/internal/primitives"
)

// FallibleSource is the error-aware measurement contract. Real boards
// are not the simulator: a primitive can crash, a driver can hang, a
// timer can return garbage — so every measurement may fail, and every
// measurement observes a context so a hung board cannot wedge the
// pipeline. The Measure* names deliberately differ from Source's
// methods so a single type may implement both contracts.
//
// Implementations must return promptly once ctx is done (returning
// ctx.Err()); the robust measurement layer relies on this for its
// per-sample timeout and for graceful shutdown.
type FallibleSource interface {
	// MeasureSample returns one latency observation (seconds) of
	// running layer i of the network with primitive p; sample indexes
	// the input image for reproducibility.
	MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error)
	// MeasureEdgePenalty returns the compatibility cost of feeding the
	// producer layer's output, computed by fp, into a consumer using
	// tp.
	MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error)
	// MeasureOutputPenalty returns the cost of returning the output
	// layer's result to the host when computed by p.
	MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error)
}

// ValidObservation reports whether v is a physically meaningful
// measurement: finite and non-negative — the invariant lut.Table
// enforces at write time. The robust measurement layer rejects (and
// retries) observations that fail it at the source boundary.
func ValidObservation(v float64) bool { return lut.ValidSeconds(v) }

// AsFallible adapts an infallible Source to the FallibleSource
// contract. A source that already implements FallibleSource (like the
// real engine's) is returned unchanged, so its genuine error reporting
// is preserved; otherwise each call checks the context and wraps the
// raw value in a nil error.
func AsFallible(src Source) FallibleSource {
	if f, ok := src.(FallibleSource); ok {
		return f
	}
	return infallible{src}
}

type infallible struct{ src Source }

func (a infallible) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return a.src.Sample(i, p, sample), nil
}

func (a infallible) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return a.src.EdgePenalty(producer, fp, tp), nil
}

func (a infallible) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return a.src.OutputPenalty(output, p), nil
}
