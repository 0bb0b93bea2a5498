package profile

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/primitives"
)

// FaultConfig is a seeded, deterministic fault schedule. Every
// decision is a pure function of (Seed, measurement identity, attempt
// number), so two runs with equal seeds inject identical faults
// regardless of worker count or wall-clock — which is what makes the
// fault-tolerant pipeline testable under -race with determinism
// assertions.
//
// Rates are probabilities in [0, 1]; a zero config injects nothing.
type FaultConfig struct {
	// Seed drives every fault decision.
	Seed int64
	// TransientRate selects measurements whose first attempts error
	// (the retry machinery must absorb them).
	TransientRate float64
	// TransientBurst is the maximum number of consecutive failing
	// attempts of a transient fault; 0 selects 2. A burst longer than
	// the retry budget turns the fault persistent.
	TransientBurst int
	// PermanentRate selects (layer, primitive) sample measurements
	// that fail on every attempt — the graceful-degradation path must
	// drop those primitives. Penalty measurements are exempt so the
	// schedule cannot make a whole edge unmeasurable, and so is the
	// Vanilla primitive: it models the always-available software
	// fallback (library kernels break; the baseline C path does not),
	// which guarantees every layer keeps a surviving candidate.
	PermanentRate float64
	// StallRate selects measurements whose first attempt blocks for
	// Stall (or until the context is canceled) — the per-sample
	// timeout path.
	StallRate float64
	// Stall is the stall duration; 0 selects 50ms.
	Stall time.Duration
	// NaNRate selects samples whose first attempt observes NaN — the
	// source-boundary validation path.
	NaNRate float64
	// SpikeRate selects samples whose (valid) observation is
	// multiplied by SpikeFactor — the outlier-robust aggregation path.
	// Spikes are not errors and are never retried.
	SpikeRate float64
	// SpikeFactor is the outlier multiplier; 0 selects 25.
	SpikeFactor float64
	// FaultLibraries restricts the error schedule (transient,
	// permanent, stall, NaN, spike) to the named libraries; empty
	// targets all. Drift modes below have their own library lists.
	FaultLibraries []string

	// DriftStep names libraries whose sample latencies jump to
	// DriftFactor times their true value once the drift round counter
	// is advanced past zero — a thermal-throttling cliff.
	DriftStep []string
	// DriftRamp names libraries whose latencies ramp linearly from 1x
	// to DriftFactor times over DriftRampRounds rounds, then saturate
	// — gradual DVFS / co-located-load creep.
	DriftRamp []string
	// DriftFactor is the saturated drift multiplier; 0 selects 3.
	DriftFactor float64
	// DriftRampRounds is the number of rounds a ramp takes to
	// saturate; 0 selects 4.
	DriftRampRounds int
}

// DefaultFaults returns the schedule used by the CLI's -fault-seed
// flag and the CI fault-injection step: a little of everything.
func DefaultFaults(seed int64) FaultConfig {
	return FaultConfig{
		Seed:          seed,
		TransientRate: 0.05,
		PermanentRate: 0.02,
		StallRate:     0.01,
		Stall:         25 * time.Millisecond,
		NaNRate:       0.03,
		SpikeRate:     0.05,
	}
}

// ErrInjected marks every error produced by the schedule, so tests and
// reports can tell injected faults from real ones.
type ErrInjected struct{ What string }

func (e *ErrInjected) Error() string { return "injected fault: " + e.What }

// FaultSource decorates any Source with the fault schedule — the test
// harness for the entire fault-tolerance stack. It tracks
// per-measurement attempt counts (its only state), so transient faults
// clear after their burst while permanent faults never do. Safe for
// concurrent use.
type FaultSource struct {
	cfg FaultConfig
	src Source

	// round is the drift round counter. Like everything else in the
	// schedule it is not wall-clock: the harness advances it
	// explicitly (one advance per simulated environment shift), so a
	// drifted run is replayed exactly by setting the same round.
	round atomic.Int64

	mu       sync.Mutex
	attempts map[string]int
}

// NewFaultSource wraps src in the fault schedule: injected errors and
// stalls come before src is asked, poisoning and drift apply to what
// it returns, and src's own errors pass through. Each FaultSource
// starts with fresh attempt counters; construct one per profiling run
// to keep runs independent and deterministic.
func NewFaultSource(src Source, cfg FaultConfig) *FaultSource {
	return &FaultSource{cfg: cfg, src: src, attempts: map[string]int{}}
}

// AdvanceDrift advances the drift round counter by one and returns
// the new round — one environment shift (the throttle tightening, the
// neighbor workload growing).
func (f *FaultSource) AdvanceDrift() int64 { return f.round.Add(1) }

// SetDriftRound pins the drift round counter — how a reference run
// reproduces the exact environment a live run drifted into.
func (f *FaultSource) SetDriftRound(n int64) { f.round.Store(n) }

// DriftRound returns the current drift round.
func (f *FaultSource) DriftRound() int64 { return f.round.Load() }

// driftFactor returns the latency multiplier the drift schedule
// applies to lib at the current round: a pure function of (config,
// round), identical for every measurement of the library within a
// round, so a table profiled at round r is byte-identical to any
// other table profiled at round r.
func (f *FaultSource) driftFactor(lib string) float64 {
	r := f.round.Load()
	if r <= 0 {
		return 1
	}
	sat := f.cfg.DriftFactor
	if sat <= 0 {
		sat = 3
	}
	if containsLib(f.cfg.DriftStep, lib) {
		return sat
	}
	if containsLib(f.cfg.DriftRamp, lib) {
		rounds := f.cfg.DriftRampRounds
		if rounds <= 0 {
			rounds = 4
		}
		if r >= int64(rounds) {
			return sat
		}
		return 1 + (sat-1)*float64(r)/float64(rounds)
	}
	return 1
}

// targeted reports whether the error schedule applies to a
// measurement touching libs.
func (f *FaultSource) targeted(libs ...string) bool {
	if len(f.cfg.FaultLibraries) == 0 {
		return true
	}
	for _, lib := range libs {
		if containsLib(f.cfg.FaultLibraries, lib) {
			return true
		}
	}
	return false
}

func containsLib(list []string, lib string) bool {
	for _, l := range list {
		if l == lib {
			return true
		}
	}
	return false
}

// nextAttempt returns and increments the attempt counter for key.
func (f *FaultSource) nextAttempt(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	a := f.attempts[key]
	f.attempts[key] = a + 1
	return a
}

// roll returns the schedule's uniform value for one decision kind over
// a measurement identity.
func (f *FaultSource) roll(kind string, nums ...int) float64 {
	return u01(f.cfg.Seed, "fault|"+kind, nums...)
}

// stall blocks for the configured stall duration or until ctx is done.
func (f *FaultSource) stall(ctx context.Context) error {
	d := f.cfg.Stall
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// inject applies the schedule to one attempt of the measurement
// identified by (kind, nums). permanentOK enables permanent faults
// (sample measurements only). It returns an injected (or context)
// error, whether to poison the observation with NaN, and a multiplier
// for valid observations.
func (f *FaultSource) inject(ctx context.Context, kind string, permanentOK bool, nums ...int) (poison bool, factor float64, err error) {
	if err := ctx.Err(); err != nil {
		return false, 1, err
	}
	attempt := f.nextAttempt(fmt.Sprintf("%s|%v", kind, nums))

	if permanentOK && f.cfg.PermanentRate > 0 && f.roll(kind+"|perm", nums[0], nums[1]) < f.cfg.PermanentRate {
		return false, 1, &ErrInjected{What: fmt.Sprintf("%s %v: permanent failure", kind, nums)}
	}
	if attempt == 0 && f.cfg.StallRate > 0 && f.roll(kind+"|stall", nums...) < f.cfg.StallRate {
		if err := f.stall(ctx); err != nil {
			return false, 1, err
		}
	}
	if f.cfg.TransientRate > 0 && f.roll(kind+"|trans", nums...) < f.cfg.TransientRate {
		burst := f.cfg.TransientBurst
		if burst <= 0 {
			burst = 2
		}
		n := 1 + int(f.roll(kind+"|burst", nums...)*float64(burst))
		if n > burst {
			n = burst
		}
		if attempt < n {
			return false, 1, &ErrInjected{What: fmt.Sprintf("%s %v: transient failure (attempt %d)", kind, nums, attempt)}
		}
	}
	if attempt == 0 && f.cfg.NaNRate > 0 && f.roll(kind+"|nan", nums...) < f.cfg.NaNRate {
		return true, 1, nil
	}
	if f.cfg.SpikeRate > 0 && f.roll(kind+"|spike", nums...) < f.cfg.SpikeRate {
		factor := f.cfg.SpikeFactor
		if factor <= 0 {
			factor = 25
		}
		return false, factor, nil
	}
	return false, 1, nil
}

// MeasureSample applies the full schedule to one latency sample.
// Vanilla is exempt from permanent faults (it is the degradation
// fallback), so injection can shrink candidate sets but never leave a
// layer without a surviving primitive. Drift multiplies the valid
// observation after error injection: a drifted library still
// measures, it just measures slower.
func (f *FaultSource) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	poison, factor := false, 1.0
	if f.targeted(p.Lib.String()) {
		var err error
		poison, factor, err = f.inject(ctx, "sample", p.Idx != primitives.PVanilla.Idx, i, int(p.Idx), sample)
		if err != nil {
			return 0, err
		}
	}
	v, err := f.src.MeasureSample(ctx, i, p, sample)
	if err != nil {
		return 0, err
	}
	if poison {
		return math.NaN(), nil
	}
	return v * factor * f.driftFactor(p.Lib.String()), nil
}

// MeasureEdgePenalty applies the schedule minus permanent faults: a
// persistently failing pair stays +Inf via the transient-burst path,
// but the schedule cannot render an entire edge unmeasurable.
func (f *FaultSource) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	var poison bool
	if f.targeted(fp.Lib.String(), tp.Lib.String()) {
		var err error
		poison, _, err = f.inject(ctx, "edge", false, producer, int(fp.Idx), int(tp.Idx))
		if err != nil {
			return 0, err
		}
	}
	v, err := f.src.MeasureEdgePenalty(ctx, producer, fp, tp)
	if err != nil {
		return 0, err
	}
	if poison {
		return math.NaN(), nil
	}
	return v, nil
}

// MeasureOutputPenalty applies the schedule to the host-return cost.
func (f *FaultSource) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	var poison bool
	if f.targeted(p.Lib.String()) {
		var err error
		poison, _, err = f.inject(ctx, "output", false, output, int(p.Idx))
		if err != nil {
			return 0, err
		}
	}
	v, err := f.src.MeasureOutputPenalty(ctx, output, p)
	if err != nil {
		return 0, err
	}
	if poison {
		return math.NaN(), nil
	}
	return v, nil
}

var _ Source = (*FaultSource)(nil)
