package resilience

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrOpen is the sentinel wrapped by every fast-fail an open breaker
// issues. errors.Is(err, ErrOpen) identifies breaker rejections.
var ErrOpen = errors.New("resilience: circuit breaker open")

// OpenError is the concrete fast-fail error. It names the tripped
// source and implements NoRetry so profile.Robust skips its retry loop:
// retrying against a breaker that already knows the backend is down
// only burns deadline budget.
type OpenError struct {
	Platform string
	Library  string
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: breaker open for %s/%s", e.Platform, e.Library)
}

func (e *OpenError) Unwrap() error { return ErrOpen }

// NoRetry marks the error as non-retryable for profile.Robust.
func (e *OpenError) NoRetry() bool { return true }

// State is a breaker's position in the closed → open → half-open cycle.
type State int32

const (
	// Closed: requests flow, failures are counted.
	Closed State = iota
	// Open: requests fast-fail until the cooldown elapses.
	Open
	// HalfOpen: a bounded number of probes are admitted; the rest
	// fast-fail. Probe successes close the breaker, one probe failure
	// re-opens it.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MarshalText lets State render as its name in JSON status payloads.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// BreakerConfig tunes the trip and recovery thresholds shared by every
// breaker in a BreakerSet. The zero value of each field selects the
// default noted on it.
type BreakerConfig struct {
	// FailureThreshold trips the breaker after this many consecutive
	// failures. Default 5.
	FailureThreshold int
	// ErrorRate additionally trips the breaker when the failure
	// fraction over the last Window outcomes reaches this value and at
	// least MinRequests outcomes have been observed. 0 disables
	// rate-based tripping.
	ErrorRate float64
	// Window is the ring size for rate-based tripping. Default 20.
	Window int
	// MinRequests gates rate-based tripping until the window has seen
	// this many outcomes. Default Window/2.
	MinRequests int
	// Cooldown is how long an open breaker rejects before admitting
	// half-open probes. 0 means the next Allow after tripping already
	// probes — useful for deterministic tests.
	Cooldown time.Duration
	// Probes is how many consecutive probe successes close a half-open
	// breaker. Default 2.
	Probes int
	// Exempt lists library names that never get a breaker (Allow is
	// always nil, Record a no-op). The serving daemon exempts Vanilla:
	// it is the degradation floor and must always be measurable.
	Exempt []string
	// Now is the clock, injectable for tests. Default time.Now.
	Now func() time.Time
}

func (c *BreakerConfig) withDefaults() BreakerConfig {
	out := BreakerConfig{}
	if c != nil {
		out = *c
	}
	if out.FailureThreshold <= 0 {
		out.FailureThreshold = 5
	}
	if out.Window <= 0 {
		out.Window = 20
	}
	if out.MinRequests <= 0 {
		out.MinRequests = out.Window / 2
	}
	if out.Probes <= 0 {
		out.Probes = 2
	}
	if out.Now == nil {
		out.Now = time.Now
	}
	return out
}

// Breaker is a single circuit breaker for one (platform, library)
// source. Safe for concurrent use.
type Breaker struct {
	cfg      BreakerConfig
	platform string
	library  string
	exempt   bool

	mu       sync.Mutex
	state    State
	consec   int    // consecutive failures while closed
	window   []bool // ring of recent outcomes, true = failure
	windowN  int    // outcomes recorded (saturates at len(window))
	windowAt int    // next ring slot
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	probeOK  int  // consecutive probe successes

	trips     int64
	fastFails int64
	failures  int64
	successes int64
}

// Allow reports whether a request may proceed. nil means go; a non-nil
// return is an *OpenError fast-fail. A half-open breaker admits one
// probe at a time; callers that got nil MUST follow up with exactly one
// Record or Cancel so the probe slot is released.
func (b *Breaker) Allow() error {
	if b.exempt {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
			b.state = HalfOpen
			b.probing = true
			b.probeOK = 0
			return nil
		}
	case HalfOpen:
		if !b.probing {
			b.probing = true
			return nil
		}
	}
	b.fastFails++
	return &OpenError{Platform: b.platform, Library: b.library}
}

// Record reports the outcome of a request previously admitted by
// Allow. err == nil is success; context cancellation should be
// reported via Cancel instead — a caller giving up is not evidence
// about the source's health.
func (b *Breaker) Record(err error) {
	if b.exempt {
		return
	}
	fail := err != nil
	b.mu.Lock()
	defer b.mu.Unlock()
	if fail {
		b.failures++
	} else {
		b.successes++
	}
	switch b.state {
	case HalfOpen:
		b.probing = false
		if fail {
			b.tripLocked()
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.Probes {
			b.resetLocked()
		}
	case Closed:
		b.pushWindowLocked(fail)
		if !fail {
			b.consec = 0
			return
		}
		b.consec++
		if b.consec >= b.cfg.FailureThreshold || b.rateTrippedLocked() {
			b.tripLocked()
		}
	case Open:
		// Outcome from a request admitted before the trip: count it,
		// but an open breaker's state only changes via Allow.
	}
}

// Cancel releases a probe slot (or discards a closed-state outcome)
// without judging the source: the measurement was abandoned by the
// caller — typically its context was canceled — so it says nothing
// about backend health.
func (b *Breaker) Cancel() {
	if b.exempt {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

func (b *Breaker) tripLocked() {
	b.state = Open
	b.openedAt = b.cfg.Now()
	b.trips++
	b.consec = 0
	b.probing = false
	b.probeOK = 0
	b.windowN = 0
	b.windowAt = 0
}

func (b *Breaker) resetLocked() {
	b.state = Closed
	b.consec = 0
	b.probing = false
	b.probeOK = 0
	b.windowN = 0
	b.windowAt = 0
}

func (b *Breaker) pushWindowLocked(fail bool) {
	if b.window == nil {
		b.window = make([]bool, b.cfg.Window)
	}
	b.window[b.windowAt] = fail
	b.windowAt = (b.windowAt + 1) % len(b.window)
	if b.windowN < len(b.window) {
		b.windowN++
	}
}

func (b *Breaker) rateTrippedLocked() bool {
	if b.cfg.ErrorRate <= 0 || b.windowN < b.cfg.MinRequests {
		return false
	}
	fails := 0
	for i := 0; i < b.windowN; i++ {
		if b.window[i] {
			fails++
		}
	}
	return float64(fails)/float64(b.windowN) >= b.cfg.ErrorRate
}

// State returns the breaker's current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStatus is one breaker's observable state for /statusz.
type BreakerStatus struct {
	Platform  string `json:"platform"`
	Library   string `json:"library"`
	State     State  `json:"state"`
	Trips     int64  `json:"trips"`
	Failures  int64  `json:"failures"`
	Successes int64  `json:"successes"`
	FastFails int64  `json:"fast_fails"`
}

// BreakerSet lazily manages one Breaker per (platform, library) key.
type BreakerSet struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[[2]string]*Breaker
}

// NewBreakerSet builds a set with cfg's thresholds (nil selects all
// defaults; note the default set exempts nothing — callers exempt the
// degradation-floor library themselves).
func NewBreakerSet(cfg *BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: make(map[[2]string]*Breaker)}
}

// For returns the breaker for (platform, library), creating it on
// first use.
func (s *BreakerSet) For(platform, library string) *Breaker {
	key := [2]string{platform, library}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[key]; ok {
		return b
	}
	b := &Breaker{cfg: s.cfg, platform: platform, library: library}
	for _, ex := range s.cfg.Exempt {
		if ex == library {
			b.exempt = true
			break
		}
	}
	s.m[key] = b
	return b
}

// Snapshot returns every breaker's status, sorted by (platform,
// library) for deterministic output.
func (s *BreakerSet) Snapshot() []BreakerStatus {
	s.mu.Lock()
	breakers := make([]*Breaker, 0, len(s.m))
	for _, b := range s.m {
		breakers = append(breakers, b)
	}
	s.mu.Unlock()
	out := make([]BreakerStatus, 0, len(breakers))
	for _, b := range breakers {
		b.mu.Lock()
		out = append(out, BreakerStatus{
			Platform:  b.platform,
			Library:   b.library,
			State:     b.state,
			Trips:     b.trips,
			Failures:  b.failures,
			Successes: b.successes,
			FastFails: b.fastFails,
		})
		b.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Platform != out[j].Platform {
			return out[i].Platform < out[j].Platform
		}
		return out[i].Library < out[j].Library
	})
	return out
}
