package resilience

import (
	"context"

	"repro/internal/primitives"
	"repro/internal/profile"
)

// GuardSource wraps a profile.Source with per-library circuit breakers
// from set. Each measurement first consults the breaker(s) for the
// libraries it touches: if any is open the measurement fast-fails with
// an *OpenError (NoRetry, so profile.Robust does not retry it and
// profile.RunContext degrades the candidate via lut.DropCandidate).
// Otherwise the measurement runs and its outcome is recorded — except
// when the caller's context was the cause of the failure, which is
// reported to no breaker: the caller giving up is not evidence about
// the source.
func GuardSource(set *BreakerSet, platform string, src profile.Source) profile.Source {
	return &guardedSource{set: set, platform: platform, src: src}
}

type guardedSource struct {
	set      *BreakerSet
	platform string
	src      profile.Source
}

// measure runs f under the breakers for libs (deduplicated: an edge
// between two candidates of the same library must claim its half-open
// probe slot once, not block itself by asking twice).
func (g *guardedSource) measure(ctx context.Context, libs []string, f func() (float64, error)) (float64, error) {
	claimed := libs[:0:0]
	for _, lib := range libs {
		dup := false
		for _, c := range claimed {
			if c == lib {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if err := g.set.For(g.platform, lib).Allow(); err != nil {
			for _, c := range claimed {
				g.set.For(g.platform, c).Cancel()
			}
			return 0, err
		}
		claimed = append(claimed, lib)
	}
	v, err := f()
	if err != nil && ctx.Err() != nil {
		for _, c := range claimed {
			g.set.For(g.platform, c).Cancel()
		}
		return v, err
	}
	for _, c := range claimed {
		g.set.For(g.platform, c).Record(err)
	}
	return v, err
}

func (g *guardedSource) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	return g.measure(ctx, []string{p.Lib.String()}, func() (float64, error) {
		return g.src.MeasureSample(ctx, i, p, sample)
	})
}

func (g *guardedSource) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	return g.measure(ctx, []string{fp.Lib.String(), tp.Lib.String()}, func() (float64, error) {
		return g.src.MeasureEdgePenalty(ctx, producer, fp, tp)
	})
}

func (g *guardedSource) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	return g.measure(ctx, []string{p.Lib.String()}, func() (float64, error) {
		return g.src.MeasureOutputPenalty(ctx, output, p)
	})
}

// WithHeartbeat wraps a profile.Source so every completed measurement
// beats hb — the watchdog's signal that the profiling loop is making
// progress. A hb of nil returns src unchanged.
func WithHeartbeat(hb *Heartbeat, src profile.Source) profile.Source {
	if hb == nil {
		return src
	}
	return &beatingSource{hb: hb, src: src}
}

type beatingSource struct {
	hb  *Heartbeat
	src profile.Source
}

func (b *beatingSource) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	v, err := b.src.MeasureSample(ctx, i, p, sample)
	b.hb.Beat()
	return v, err
}

func (b *beatingSource) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	v, err := b.src.MeasureEdgePenalty(ctx, producer, fp, tp)
	b.hb.Beat()
	return v, err
}

func (b *beatingSource) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	v, err := b.src.MeasureOutputPenalty(ctx, output, p)
	b.hb.Beat()
	return v, err
}
