package profile

import (
	"context"
	"fmt"

	"repro/internal/primitives"
)

// RemeasureSample re-runs the robust measurement series for a single
// (layer, primitive) table cell — the canary primitive of the serve
// daemon's plan-health subsystem. It aggregates exactly like
// RunContext's phase 1a (same policy, same per-sample indices, same
// outlier rejection), so against an unchanged deterministic source the
// fresh estimate reproduces the stored baseline bit-for-bit; any
// difference beyond the drift band is the environment moving, not the
// estimator.
func RemeasureSample(ctx context.Context, src Source, pol *Robust, i int, p *primitives.Primitive, samples int) (float64, error) {
	what := fmt.Sprintf("canary layer %d with %s", i, p.Name)
	return RobustSeries(ctx, pol, what, samples, func(ctx context.Context, s int) (float64, error) {
		return src.MeasureSample(ctx, i, p, s)
	})
}

// RobustSeries aggregates samples of an arbitrary measurement under
// the robust policy — the same timeout/retry/outlier-rejection series
// the profiling protocol applies to table cells. It is the measurement
// entry point for callers that time quantities a Source does not
// name, such as the autotuner's parameterized kernel variants. A nil
// policy falls back to a plain mean, mirroring RunContext with
// Options.Robust nil.
func RobustSeries(ctx context.Context, pol *Robust, what string, samples int, f func(ctx context.Context, sample int) (float64, error)) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("profile: Samples must be positive, got %d", samples)
	}
	m := &meter{policy: pol, report: &Report{}}
	return m.series(ctx, what, samples, f)
}
