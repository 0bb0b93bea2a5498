package profile

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// noRetryErr mimics a circuit breaker's fast-fail: the source itself
// declares the error permanent for this attempt loop.
type noRetryErr struct{ msg string }

func (e *noRetryErr) Error() string { return e.msg }
func (e *noRetryErr) NoRetry() bool { return true }

// TestAttemptNoRetry: an error carrying NoRetry() bool = true skips
// the remaining attempts — no retries burned, no backoff slept.
func TestAttemptNoRetry(t *testing.T) {
	rep := &Report{}
	m := &meter{
		policy: &Robust{MaxRetries: 5, BackoffBase: time.Millisecond},
		report: rep,
	}
	var calls atomic.Int64
	_, err := m.attempt(context.Background(), text("sample"), 0, func(context.Context, int) (float64, error) {
		calls.Add(1)
		return 0, fmt.Errorf("guarded: %w", &noRetryErr{msg: "breaker open"})
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	var nr interface{ NoRetry() bool }
	if !errors.As(err, &nr) || !nr.NoRetry() {
		t.Fatalf("NoRetry marker lost through the attempt loop: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("source called %d times, want 1 (no retries against an open breaker)", calls.Load())
	}
	if rep.Retries != 0 {
		t.Fatalf("report counted %d retries, want 0", rep.Retries)
	}
}

// TestRetryBudget: when the remaining context deadline cannot cover
// the next backoff sleep, the attempt loop fails immediately instead
// of sleeping past the budget.
func TestRetryBudget(t *testing.T) {
	rep := &Report{}
	m := &meter{
		policy: &Robust{MaxRetries: 3, BackoffBase: 200 * time.Millisecond},
		report: rep,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()

	var calls atomic.Int64
	start := time.Now()
	_, err := m.attempt(ctx, text("sample"), 0, func(context.Context, int) (float64, error) {
		calls.Add(1)
		return 0, errors.New("transient")
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	// The 200ms backoff would outlive the 80ms budget, so the loop
	// must bail before sleeping — well under the first backoff.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("attempt loop slept %v despite an exhausted retry budget", elapsed)
	}
	if calls.Load() != 1 {
		t.Fatalf("source called %d times, want 1", calls.Load())
	}
	if rep.Retries != 0 {
		t.Fatalf("report counted %d retries, want 0 (budget refused the retry)", rep.Retries)
	}
}
