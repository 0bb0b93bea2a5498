package profile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// Robust is the fault-tolerance policy for profiling on real, flaky
// hardware: per-sample timeouts bound hung measurements, transient
// failures are retried with exponential backoff plus deterministic
// jitter, invalid observations (NaN, +/-Inf, negative) are rejected at
// the source boundary, and the per-measurement aggregate is
// outlier-robust (MAD rejection followed by a trimmed mean) instead of
// a raw mean, so a single scheduling spike cannot mislead the search.
//
// The zero value disables each mechanism it configures (no timeout, no
// retries, raw mean); DefaultRobust returns the tuned policy the CLI
// uses. A nil *Robust in Options selects the strict legacy protocol:
// the first failure or invalid observation aborts profiling with an
// error, and samples are aggregated with the plain mean.
type Robust struct {
	// SampleTimeout caps one measurement attempt; 0 disables. A source
	// that ignores its context still leaks a goroutine until it
	// returns, but the pipeline itself moves on.
	SampleTimeout time.Duration
	// MaxRetries is the number of extra attempts after the first for a
	// failing or invalid measurement.
	MaxRetries int
	// BackoffBase is the delay before the first retry; it doubles per
	// attempt up to BackoffMax. 0 retries immediately.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff; 0 means uncapped.
	BackoffMax time.Duration
	// JitterSeed drives the deterministic +/-50% backoff jitter, so two
	// runs with the same seed sleep identically (results never depend
	// on the jitter either way).
	JitterSeed int64
	// TrimFraction is the fraction of samples trimmed from each tail
	// before averaging (0.1 = drop the lowest and highest 10%).
	TrimFraction float64
	// MADK rejects samples more than MADK normalized median absolute
	// deviations from the median before trimming; 0 disables.
	MADK float64
	// MinValidFrac is the fraction of a measurement's samples that must
	// survive timeout/retry for the measurement to count; below it the
	// primitive is treated as persistently failing on that layer.
	// 0 selects 0.5.
	MinValidFrac float64
}

// DefaultRobust returns the policy used by the CLI: 2s sample timeout,
// 3 retries with 2ms..50ms backoff, 10% trimmed mean and 5-MAD
// rejection.
func DefaultRobust() *Robust {
	return &Robust{
		SampleTimeout: 2 * time.Second,
		MaxRetries:    3,
		BackoffBase:   2 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		TrimFraction:  0.1,
		MADK:          5,
		MinValidFrac:  0.5,
	}
}

// RobustFor returns the policy a run measures under: pol, or
// DefaultRobust when pol is nil and faults are injected. Injected
// faults without a recovery policy would just fail the run, so a
// fault-injected run always takes the robust path.
func RobustFor(pol *Robust, faults *FaultConfig) *Robust {
	if pol == nil && faults != nil {
		return DefaultRobust()
	}
	return pol
}

// minValid returns the number of valid samples required out of n.
func (r *Robust) minValid(n int) int {
	frac := r.MinValidFrac
	if frac <= 0 {
		frac = 0.5
	}
	m := int(math.Ceil(frac * float64(n)))
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	return m
}

// backoffDelay returns the jittered sleep before retry attempt a
// (1-based) of the measurement identified by what; 0 when backoff is
// disabled.
func (r *Robust) backoffDelay(what string, sample, attempt int) time.Duration {
	if r.BackoffBase <= 0 {
		return 0
	}
	d := r.BackoffBase << (attempt - 1)
	if r.BackoffMax > 0 && d > r.BackoffMax {
		d = r.BackoffMax
	}
	// Deterministic jitter in [0.5, 1.5): seeded by the measurement
	// identity so runs with equal seeds sleep identically.
	return time.Duration(float64(d) * (0.5 + jitter(r.JitterSeed, what, sample, attempt)))
}

// jitter is the backoff's uniform draw in [0, 1): the Unit of the key
// "<seed>|<what>|<sample>|<attempt>".
func jitter(seed int64, what string, sample, attempt int) float64 {
	return seedKey(seed, what).Byte('|').Int(int64(sample)).Byte('|').Int(int64(attempt)).Unit()
}

// backoff sleeps for backoffDelay, aborting early if ctx is done.
func (r *Robust) backoff(ctx context.Context, what string, sample, attempt int) error {
	d := r.backoffDelay(what, sample, attempt)
	if d <= 0 {
		return nil
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

// seedKey starts the key "<seed>|<key>" shared by the backoff jitter
// and the fault schedule; each extends it with "|<n>" per number and
// draws its Unit.
func seedKey(seed int64, key string) stats.Key {
	return stats.NewKey().Int(seed).Byte('|').Str(key)
}

// meter executes measurements under a policy, accumulating counters
// and exclusions into the Report. A nil policy selects the strict
// legacy behavior.
type meter struct {
	policy *Robust
	report *Report
	vals   []float64 // series' sample buffer, reused across series
}

// sampleFunc takes one sample of a measurement.
type sampleFunc func(ctx context.Context, sample int) (float64, error)

// text labels a measurement with a fixed string.
func text(s string) func() string { return func() string { return s } }

// attempt runs sample of one measurement with timeout, validity
// checking at the source boundary, and bounded retry. what labels the
// measurement in errors and jitter hashing; it is called only once an
// attempt has failed, so a measurement that succeeds formats nothing.
// sample disambiguates retries of different samples of the same
// measurement.
func (m *meter) attempt(ctx context.Context, what func() string, sample int, f sampleFunc) (float64, error) {
	retries := 0
	var timeout time.Duration
	if m.policy != nil {
		retries = m.policy.MaxRetries
		timeout = m.policy.SampleTimeout
	}
	var lastErr error
	for a := 0; a <= retries; a++ {
		if a > 0 {
			// Respect the run's remaining deadline budget, not just the
			// per-sample timeout: a retry whose backoff sleep would
			// outlive the budget cannot possibly succeed, so fail now
			// and let the caller use what is left of the budget.
			label := what()
			if dl, ok := ctx.Deadline(); ok {
				if d := m.policy.backoffDelay(label, sample, a); time.Until(dl) <= d {
					return 0, fmt.Errorf("%s: retry budget exhausted after %d attempt(s): %w (last error: %v)",
						label, a, context.DeadlineExceeded, lastErr)
				}
			}
			m.report.Retries++
			if err := m.policy.backoff(ctx, label, sample, a); err != nil {
				return 0, err
			}
		}
		v, err := runBounded(ctx, timeout, f, sample)
		if err == nil {
			if !ValidObservation(v) {
				m.report.Invalid++
				lastErr = fmt.Errorf("invalid observation %v", v)
				continue
			}
			return v, nil
		}
		if ctx.Err() != nil {
			// The run itself was canceled — don't retry.
			return 0, err
		}
		// A source that declares its error non-retryable (an open
		// circuit breaker's fast-fail) skips the remaining attempts:
		// retrying against a breaker that already knows the backend is
		// down only burns budget.
		var nr interface{ NoRetry() bool }
		if errors.As(err, &nr) && nr.NoRetry() {
			m.report.FastFails++
			return 0, fmt.Errorf("%s: %w", what(), err)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			m.report.Timeouts++
		}
		lastErr = err
	}
	return 0, fmt.Errorf("%s: %d attempt(s) failed: %w", what(), retries+1, lastErr)
}

// runBounded takes sample of f under an optional per-attempt
// deadline. The measurement runs in its own goroutine so a source that
// ignores its context cannot block the pipeline past the timeout (it
// leaks that goroutine until it returns — the price of preemption-free
// Go).
func runBounded(ctx context.Context, timeout time.Duration, f sampleFunc, sample int) (float64, error) {
	if timeout <= 0 {
		return f(ctx, sample)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type res struct {
		v   float64
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := f(actx, sample)
		ch <- res{v, err}
	}()
	select {
	case <-actx.Done():
		return 0, actx.Err()
	case r := <-ch:
		return r.v, r.err
	}
}

// series measures n samples of one (layer, primitive) quantity and
// returns the aggregate. In strict mode (nil policy) any failure
// aborts; under a policy, failed samples are dropped and the
// measurement succeeds as long as minValid samples survive.
func (m *meter) series(ctx context.Context, what func() string, n int, f sampleFunc) (float64, error) {
	if cap(m.vals) < n {
		m.vals = make([]float64, 0, n)
	}
	vals := m.vals[:0]
	var lastErr error
	for s := 0; s < n; s++ {
		v, err := m.attempt(ctx, what, s, f)
		if err != nil {
			if ctx.Err() != nil {
				return 0, err
			}
			if m.policy == nil {
				return 0, err
			}
			m.report.DroppedSamples++
			lastErr = err
			continue
		}
		vals = append(vals, v)
	}
	if m.policy == nil {
		return stats.Mean(vals), nil
	}
	if need := m.policy.minValid(n); len(vals) < need {
		return 0, fmt.Errorf("%s: only %d/%d samples valid (need %d): %w", what(), len(vals), n, need, lastErr)
	}
	return m.aggregate(vals), nil
}

// single measures a one-shot quantity (edge or output penalty) under
// the retry/timeout machinery, as its sample 0.
func (m *meter) single(ctx context.Context, what func() string, f sampleFunc) (float64, error) {
	return m.attempt(ctx, what, 0, f)
}

// aggregate reduces valid samples to one value: MAD outlier rejection
// followed by a trimmed mean. Counters for rejected samples land in
// the report. Falls back to the plain mean when both mechanisms are
// disabled — and always when fewer than 3 samples remain, where robust
// statistics are meaningless.
func (m *meter) aggregate(vals []float64) float64 {
	p := m.policy
	if (p.MADK <= 0 && p.TrimFraction <= 0) || len(vals) < 3 {
		return stats.Mean(vals)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	kept := sorted
	if p.MADK > 0 {
		med := stats.Median(sorted)
		if mad := stats.MAD(sorted) * stats.MADSigma; mad > 0 {
			filtered := kept[:0:0]
			for _, v := range sorted {
				if math.Abs(v-med) <= p.MADK*mad {
					filtered = append(filtered, v)
				} else {
					m.report.Outliers++
				}
			}
			if len(filtered) > 0 {
				kept = filtered
			}
		}
	}
	if p.TrimFraction > 0 {
		k := int(p.TrimFraction * float64(len(kept)))
		if 2*k < len(kept) {
			m.report.Outliers += 2 * k
			kept = kept[k : len(kept)-k]
		}
	}
	return stats.Mean(kept)
}
