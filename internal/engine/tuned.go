package engine

import (
	"context"
	"fmt"

	"repro/internal/kernels"
	"repro/internal/primitives"
)

// tunedKey addresses one tuned-variant assignment: configs are
// per-(layer, twin) because the autotuner tunes each layer's shape
// independently.
type tunedKey struct {
	layer int
	id    primitives.ID
}

// SetTuned records the execution config a tuned twin uses at the given
// layer. Run consults these when an assignment selects a tuned twin
// (see primitives.EnableTunedVariants); a twin with no recorded config
// executes with the defaults, so a partially-applied tuning cache is
// only ever a missed optimization, never an error. SetTuned may only be
// called while the engine is being configured, not concurrently with
// Run — the same single-writer discipline as lut.Table population.
func (e *Engine) SetTuned(i int, id primitives.ID, cfg kernels.ConvTuned) {
	if e.tuned == nil {
		e.tuned = map[tunedKey]kernels.ConvTuned{}
	}
	e.tuned[tunedKey{i, id}] = cfg
}

// MeasureTuned times one execution of layer i as base would run it,
// under an explicit tuned config, on the cached canonical activations.
// Unlike MeasureSample with a tuned twin it never touches the engine's
// tuned-config map, so concurrent measurement fan-outs with different
// configs are race-free.
func (s *Source) MeasureTuned(ctx context.Context, i int, base *primitives.Primitive, cfg kernels.ConvTuned) (float64, error) {
	if base.Tuned {
		return 0, fmt.Errorf("tuning %s: base %s is itself tuned", s.eng.Net.Layers[i].Name, base.Name)
	}
	return s.measure(ctx, "tuning", i, base, cfg)
}
