package resilience

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is an injectable Now for deterministic cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

var errBoom = errors.New("boom")

// TestBreakerLifecycle walks one breaker through the full
// closed → open → half-open → closed cycle with deterministic trip
// points.
func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	set := NewBreakerSet(&BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         time.Second,
		Probes:           2,
		Now:              clk.now,
	})
	b := set.For("tx2-like", "LibA")

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed Allow %d: %v", i, err)
		}
		b.Record(errBoom)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	// A success resets the consecutive count.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(nil)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Record(errBoom)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("success did not reset consecutive count: %v", got)
	}
	// Third consecutive failure trips it.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after threshold = %v, want open", got)
	}

	// Open: fast-fails with *OpenError until the cooldown elapses.
	err := b.Allow()
	var oe *OpenError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOpen) {
		t.Fatalf("open Allow = %v, want *OpenError wrapping ErrOpen", err)
	}
	if oe.Platform != "tx2-like" || oe.Library != "LibA" {
		t.Fatalf("OpenError names %s/%s", oe.Platform, oe.Library)
	}
	if !oe.NoRetry() {
		t.Fatal("OpenError must be NoRetry")
	}

	// Half-open after cooldown: one probe at a time.
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after cooldown Allow = %v, want half-open", got)
	}
	if err := b.Allow(); err == nil {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe failure re-opens.
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after probe failure = %v, want open", got)
	}

	// Recover: Probes consecutive probe successes close it.
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("recovery probe %d: %v", i, err)
		}
		b.Record(nil)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after %d probe successes = %v, want closed", 2, got)
	}
	// Healed: requests flow again.
	if err := b.Allow(); err != nil {
		t.Fatalf("healed Allow: %v", err)
	}
	b.Record(nil)

	st := set.Snapshot()
	if len(st) != 1 {
		t.Fatalf("snapshot has %d breakers", len(st))
	}
	if st[0].Trips != 2 || st[0].FastFails < 2 {
		t.Fatalf("counters: %+v (want 2 trips, >=2 fast-fails)", st[0])
	}
}

// TestBreakerZeroCooldown checks the deterministic-test mode: the next
// Allow after a trip already probes.
func TestBreakerZeroCooldown(t *testing.T) {
	set := NewBreakerSet(&BreakerConfig{FailureThreshold: 1, Probes: 1})
	b := set.For("p", "L")
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want open after one failure", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("zero-cooldown probe rejected: %v", err)
	}
	b.Record(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed after one probe success", got)
	}
}

// TestBreakerCancelReleasesProbe checks that an abandoned probe frees
// the slot without judging the source.
func TestBreakerCancelReleasesProbe(t *testing.T) {
	set := NewBreakerSet(&BreakerConfig{FailureThreshold: 1, Probes: 1})
	b := set.For("p", "L")
	b.Allow()
	b.Record(errBoom) // trip
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	// The probe's context was canceled: no verdict.
	b.Cancel()
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after Cancel = %v, want half-open", got)
	}
	// Slot is free again.
	if err := b.Allow(); err != nil {
		t.Fatalf("probe slot not released: %v", err)
	}
	b.Record(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed", got)
	}
}

// TestBreakerErrorRate checks rate-based tripping over the window.
func TestBreakerErrorRate(t *testing.T) {
	set := NewBreakerSet(&BreakerConfig{
		FailureThreshold: 100, // consecutive path effectively off
		ErrorRate:        0.5,
		Window:           10,
		MinRequests:      10,
	})
	b := set.For("p", "L")
	// Alternate success/failure: 50% failure rate, but under
	// MinRequests nothing trips.
	for i := 0; i < 9; i++ {
		b.Allow()
		if i%2 == 0 {
			b.Record(errBoom)
		} else {
			b.Record(nil)
		}
		if got := b.State(); got != Closed {
			t.Fatalf("tripped early at outcome %d: %v", i, got)
		}
	}
	// The 10th outcome reaches MinRequests with 5/10 failures >= 0.5 —
	// but rate tripping only fires on a failing outcome.
	b.Allow()
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after 6/10 failures = %v, want open", got)
	}
}

// anyOpen reports whether set's snapshot holds an open breaker.
func anyOpen(set *BreakerSet) bool {
	for _, st := range set.Snapshot() {
		if st.State == Open {
			return true
		}
	}
	return false
}

// TestBreakerExempt checks that exempt libraries never trip.
func TestBreakerExempt(t *testing.T) {
	set := NewBreakerSet(&BreakerConfig{FailureThreshold: 1, Exempt: []string{"Vanilla"}})
	b := set.For("p", "Vanilla")
	for i := 0; i < 10; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("exempt Allow %d: %v", i, err)
		}
		b.Record(errBoom)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("exempt breaker state = %v, want closed", got)
	}
	if anyOpen(set) {
		t.Fatal("an open breaker in an exempt-only set")
	}
}

// TestBreakerSetDistinctKeys checks per-(platform, library) isolation.
func TestBreakerSetDistinctKeys(t *testing.T) {
	set := NewBreakerSet(&BreakerConfig{FailureThreshold: 1})
	a := set.For("p1", "L")
	a.Allow()
	a.Record(errBoom)
	if got := a.State(); got != Open {
		t.Fatalf("p1/L = %v, want open", got)
	}
	if got := set.For("p2", "L").State(); got != Closed {
		t.Fatalf("p2/L = %v, want closed (isolated)", got)
	}
	if got := set.For("p1", "M").State(); got != Closed {
		t.Fatalf("p1/M = %v, want closed (isolated)", got)
	}
	if !anyOpen(set) {
		t.Fatal("the snapshot missed the tripped breaker")
	}
	if same := set.For("p1", "L"); same != a {
		t.Fatal("For did not return the cached breaker")
	}
	snap := set.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	// Sorted by (platform, library).
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Platform > snap[i].Platform ||
			(snap[i-1].Platform == snap[i].Platform && snap[i-1].Library > snap[i].Library) {
			t.Fatalf("snapshot not sorted: %+v", snap)
		}
	}
}
