// Package resilience provides the serving daemon's failure-containment
// primitives: per-(platform, primitive library) circuit breakers that
// stop burning retry budget on a backend that is down, and a stuck-work
// watchdog that cancels jobs whose progress heartbeat stalls.
//
// Both are deterministic under test: the breaker takes an injectable
// clock and trips on exact consecutive-failure / windowed-error-rate
// thresholds, and the watchdog exposes a single-scan Sweep so tests can
// drive it with a fake clock instead of sleeping.
//
// The pieces compose with the fault-tolerant profiling pipeline from
// internal/profile: GuardSource wraps a profile.Source so that an open
// breaker fast-fails measurements with a NoRetry error, which
// profile.Robust treats as non-retryable and profile.RunContext turns
// into lut.DropCandidate degradation — the tripped library's candidates
// drop out of the search space instead of pinning the job.
package resilience
