// Package profile implements the paper's inference phase (§V-A): the
// protocol that turns a latency source (the platform simulator or the
// real engine) into the look-up table the search consumes.
//
// The protocol follows the paper exactly:
//
//  1. Vanilla is the base implementation. For each primitive type, the
//     controller substitutes it into every layer the primitive can
//     implement (Vanilla everywhere else) and "infers" the whole
//     network once per sample image, recording each layer's time; the
//     per-layer mean over the samples is stored. The network is thus
//     inferred only as many times as there are global implementations.
//  2. A single extra pass profiles every possible compatibility layer
//     (layout conversion / processor copy) between each pair of
//     consecutive layers, branches included, plus the output-return
//     cost.
package profile

import (
	"context"
	"fmt"
	"math"

	"repro/internal/compat"
	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
)

// Source is the measurement contract of the inference phase: one
// per-layer latency sample under a given primitive, and the
// compatibility costs. The platform simulator, its energy model, the
// real engine and the fault-injection harness all implement it.
//
// Real boards are not the simulator: a primitive can crash, a kernel
// launch can hang, a timer can return garbage, so every measurement
// may fail, and every measurement observes a context so a hung board
// cannot wedge the pipeline. Implementations must return ctx.Err() once ctx
// is done; the robust measurement layer relies on this for its
// per-sample timeout and for graceful shutdown. A value returned
// beside a non-nil error is meaningless.
type Source interface {
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
// measurement: finite and non-negative, the invariant lut.Table
// enforces at write time. The robust measurement layer rejects (and
// retries) observations that fail it at the source boundary.
func ValidObservation(v float64) bool { return lut.ValidSeconds(v) }

// Options configures a profiling run.
type Options struct {
	// Mode selects the processor mode (CPU or GPGPU).
	Mode primitives.Mode
	// Samples is the number of images averaged per measurement; the
	// paper uses 50.
	Samples int
	// Robust, when non-nil, enables the fault-tolerant protocol:
	// per-sample timeouts, retry with backoff, outlier-robust
	// aggregation, and graceful degradation (persistently failing
	// primitives are dropped from their layer's candidate set instead
	// of aborting the run). nil selects the strict legacy protocol —
	// any failure or invalid observation is an immediate error and
	// samples are aggregated with the plain mean.
	Robust *Robust
}

// DefaultOptions returns the paper's profiling settings.
func DefaultOptions(mode primitives.Mode) Options {
	return Options{Mode: mode, Samples: 50}
}

// Run executes the two-phase protocol and returns the populated table.
// It is the strict, non-cancellable entry point; RunContext adds
// cancellation and the degradation report.
func Run(net *nn.Network, src Source, opts Options) (*lut.Table, error) {
	t, _, err := RunContext(context.Background(), net, src, opts)
	return t, err
}

// RunContext executes the protocol under a context. With Options.Robust
// nil any failed or invalid observation is an immediate error and the
// report only carries identification fields. With Robust set the run
// is fault-tolerant:
//
//   - every measurement goes through the Robust policy (timeout, retry
//     with backoff, validity checking at the source boundary);
//   - a primitive that persistently fails on a layer is dropped from
//     that layer's candidate set (Vanilla fallback) and recorded in
//     the Report — the search proceeds on a reduced-but-valid table;
//   - the run errors only when a layer has no surviving candidate, an
//     edge has no measurable pair, or the context is canceled.
//
// The report is non-nil whenever the run got past argument validation,
// even on error.
func RunContext(ctx context.Context, net *nn.Network, src Source, opts Options) (*lut.Table, *Report, error) {
	if opts.Samples <= 0 {
		return nil, nil, fmt.Errorf("profile: Samples must be positive, got %d", opts.Samples)
	}
	rep := &Report{Network: net.Name, Mode: opts.Mode, Samples: opts.Samples}
	m := &meter{policy: opts.Robust, report: rep}
	degrade := opts.Robust != nil
	t := lut.New(net, opts.Mode)

	// Phase 1a: one global implementation per primitive. A layer's
	// time under primitive p is measured during the run where p is
	// substituted in (layers p cannot implement run Vanilla and are
	// measured during the Vanilla run).
	for _, p := range primitives.Registry() {
		if opts.Mode == primitives.ModeCPU && p.Proc == primitives.GPU {
			continue
		}
		for i, l := range net.Layers {
			if i == 0 {
				continue
			}
			if !primitives.CanImplement(l, opts.Mode, p) {
				continue
			}
			what := func() string { return fmt.Sprintf("layer %d (%s) with %s", i, l.Name, p.Name) }
			v, err := m.series(ctx, what, opts.Samples, func(ctx context.Context, s int) (float64, error) {
				return src.MeasureSample(ctx, i, p, s)
			})
			if err != nil {
				if ctx.Err() != nil || !degrade {
					return nil, rep, fmt.Errorf("profile: %w", err)
				}
				t.DropCandidate(i, p.Idx)
				rep.Excluded = append(rep.Excluded, Exclusion{
					Layer: i, LayerName: l.Name, Primitive: p.Name, Reason: err.Error(),
				})
				continue
			}
			t.SetTime(i, p.Idx, v)
		}
	}

	// Degradation floor: the search needs at least one measured
	// primitive per layer; a layer that lost everything (Vanilla
	// included) cannot be scheduled at all.
	for i := 1; i < t.NumLayers(); i++ {
		ok := false
		for _, id := range t.Candidates(i) {
			if !math.IsInf(t.Time(i, id), 1) {
				ok = true
				break
			}
		}
		if !ok {
			return nil, rep, fmt.Errorf("profile: layer %d (%s): no surviving primitive after degradation",
				i, net.Layers[i].Name)
		}
	}

	// Phase 1b: one pass over all compatibility layers — every edge,
	// every surviving primitive pair, plus the host-return penalty. A
	// pair whose penalty cannot be measured stays +Inf (the search can
	// never find it attractive); an edge with no measurable pair at
	// all makes every assignment unschedulable, which is an error.
	for _, ed := range t.Edges() {
		okPair := false
		for _, fp := range t.Candidates(ed.From) {
			for _, tp := range t.Candidates(ed.To) {
				what := func() string {
					return fmt.Sprintf("edge %d->%d (%s -> %s)",
						ed.From, ed.To, primitives.ByID(fp).Name, primitives.ByID(tp).Name)
				}
				pen, err := m.single(ctx, what, func(ctx context.Context, _ int) (float64, error) {
					return src.MeasureEdgePenalty(ctx, ed.From, primitives.ByID(fp), primitives.ByID(tp))
				})
				if err != nil {
					if ctx.Err() != nil || !degrade {
						return nil, rep, fmt.Errorf("profile: %w", err)
					}
					rep.EdgeExcluded = append(rep.EdgeExcluded, EdgeExclusion{
						From: ed.From, To: ed.To,
						FromPrim: primitives.ByID(fp).Name, ToPrim: primitives.ByID(tp).Name,
						Reason: err.Error(),
					})
					continue
				}
				t.SetPenalty(ed.From, ed.To, fp, tp, pen)
				okPair = true
			}
		}
		if !okPair {
			return nil, rep, fmt.Errorf("profile: edge %d->%d: no measurable primitive pair", ed.From, ed.To)
		}
	}
	out := t.OutputLayer()
	for _, p := range append([]primitives.ID(nil), t.Candidates(out)...) {
		what := func() string { return fmt.Sprintf("output penalty (%s)", primitives.ByID(p).Name) }
		pen, err := m.single(ctx, what, func(ctx context.Context, _ int) (float64, error) {
			return src.MeasureOutputPenalty(ctx, out, primitives.ByID(p))
		})
		if err != nil {
			if ctx.Err() != nil || !degrade {
				return nil, rep, fmt.Errorf("profile: %w", err)
			}
			// Without a host-return cost the primitive is unusable at
			// the output layer specifically, so it is dropped there.
			t.DropCandidate(out, p)
			rep.Excluded = append(rep.Excluded, Exclusion{
				Layer: out, LayerName: net.Layers[out].Name,
				Primitive: primitives.ByID(p).Name, Reason: err.Error(),
			})
			continue
		}
		t.SetOutputPenalty(p, pen)
	}
	if len(t.Candidates(out)) == 0 {
		return nil, rep, fmt.Errorf("profile: output layer %d: no surviving primitive after degradation", out)
	}
	return t, rep, nil
}

// SimSource adapts the platform cost model to the Source interface.
// The model never fails, so a measurement errs only on a done context.
type SimSource struct {
	net *nn.Network
	pl  *platform.Platform
	// pairs holds every candidate (layer, primitive) pair of net,
	// modelled once, at [layer*primitives.Count()+primitive]; a pair
	// that is no candidate of its layer holds a NaN Base. It is filled
	// by newSim and only read afterwards.
	pairs []platform.Pair
}

// NewSimSource wires a network to a platform model. It models each
// candidate (layer, primitive) pair once, so pl must not change
// afterwards.
func NewSimSource(net *nn.Network, pl *platform.Platform) *SimSource {
	s := newSim(net, pl)
	return &s
}

func newSim(net *nn.Network, pl *platform.Platform) SimSource {
	n := primitives.Count()
	pairs := make([]platform.Pair, len(net.Layers)*n)
	for i, l := range net.Layers {
		row := pairs[i*n : (i+1)*n]
		for j := range row {
			row[j].Base = math.NaN()
		}
		// GPGPU mode's candidates include CPU mode's.
		for _, p := range primitives.Candidates(l, primitives.ModeGPGPU) {
			row[p.Idx] = pl.Pair(l, p)
		}
	}
	return SimSource{net: net, pl: pl, pairs: pairs}
}

// sample returns one simulated latency of layer i under p.
func (s *SimSource) sample(i int, p *primitives.Primitive, sample int) float64 {
	q := s.pairs[i*primitives.Count()+int(p.Idx)]
	if math.IsNaN(q.Base) {
		return s.pl.Sample(s.net.Layers[i], p, sample)
	}
	return q.Sample(sample)
}

// MeasureSample returns one noisy simulated measurement.
func (s *SimSource) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	return s.sample(i, p, sample), ctx.Err()
}

// MeasureEdgePenalty returns the simulated compatibility cost.
func (s *SimSource) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	return compat.Penalty(s.pl, s.net.Layers[producer], fp, tp), ctx.Err()
}

// MeasureOutputPenalty returns the simulated host-return cost.
func (s *SimSource) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	return compat.OutputPenalty(s.pl, s.net.Layers[output], p), ctx.Err()
}

// SimEnergySource is SimSource measuring joules instead of seconds:
// the platform's energy model behind the same Source contract, so an
// energy table is profiled by the same protocol, options and Robust
// policy as the latency table.
type SimEnergySource SimSource

// NewSimEnergySource wires a network to a platform's energy model. Like
// NewSimSource, it models each candidate pair once, so pl must not
// change afterwards.
func NewSimEnergySource(net *nn.Network, pl *platform.Platform) *SimEnergySource {
	s := SimEnergySource(newSim(net, pl))
	return &s
}

// MeasureSample returns one noisy simulated energy measurement.
func (s *SimEnergySource) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	return s.pl.Joules((*SimSource)(s).sample(i, p, sample), p.Proc), ctx.Err()
}

// MeasureEdgePenalty returns the simulated compatibility energy.
func (s *SimEnergySource) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	return compat.EnergyPenalty(s.pl, s.net.Layers[producer], fp, tp), ctx.Err()
}

// MeasureOutputPenalty returns the simulated host-return energy.
func (s *SimEnergySource) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	return compat.OutputEnergyPenalty(s.pl, s.net.Layers[output], p), ctx.Err()
}
