package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
)

// failingLibSource decorates a Source so every sample
// measurement of one library fails — the "driver for this backend is
// broken" scenario the breakers exist for. Calls are counted per
// library so tests can prove fast-fails skipped the source entirely.
type failingLibSource struct {
	src   profile.Source
	lib   primitives.Library
	calls atomic.Int64 // measurements attempted against the broken lib
}

var errBackend = errors.New("backend driver crashed")

func (f *failingLibSource) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	if p.Lib == f.lib {
		f.calls.Add(1)
		return 0, errBackend
	}
	return f.src.MeasureSample(ctx, i, p, sample)
}

func (f *failingLibSource) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	return f.src.MeasureEdgePenalty(ctx, producer, fp, tp)
}

func (f *failingLibSource) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	return f.src.MeasureOutputPenalty(ctx, output, p)
}

// TestGuardSourceDegradation is the breaker ↔ profiling integration
// check: a library whose every measurement fails trips its breaker,
// later candidates of that library fast-fail without touching the
// source (NoRetry, no retry burn), and RunContext degrades by
// dropping the candidates instead of aborting the run.
func TestGuardSourceDegradation(t *testing.T) {
	net, err := models.Build("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	board, _ := platform.Preset("tx2-like")
	sim := profile.NewSimSource(net, board)
	failing := &failingLibSource{src: sim, lib: primitives.NNPACK}

	// The long cooldown keeps the breaker open for the whole run: after
	// the trip every further NNPACK measurement must fast-fail (with a
	// zero cooldown each one would instead be admitted as a half-open
	// probe, re-fail, and re-trip — correct, but it would not exercise
	// load shedding).
	set := NewBreakerSet(&BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         time.Hour,
		Exempt:           []string{primitives.Vanilla.String()},
	})
	src := GuardSource(set, board.Name, failing)

	tab, rep, err := profile.RunContext(context.Background(), net, src, profile.Options{
		Mode:    primitives.ModeCPU,
		Samples: 3,
		Robust:  &profile.Robust{MaxRetries: 2},
	})
	if err != nil {
		t.Fatalf("RunContext should degrade, not fail: %v", err)
	}
	if tab == nil {
		t.Fatal("no table")
	}
	if len(rep.Excluded) == 0 {
		t.Fatal("no candidates excluded despite a fully failing library")
	}
	for _, ex := range rep.Excluded {
		pr, ok := primitives.ByName(ex.Primitive)
		if !ok {
			t.Fatalf("excluded primitive %q unknown", ex.Primitive)
		}
		if pr.Lib != primitives.NNPACK {
			t.Fatalf("excluded %s (library %s), only %s should fail", ex.Primitive, pr.Lib, primitives.NNPACK)
		}
	}

	b := set.For(board.Name, primitives.NNPACK.String())
	if got := b.State(); got != Open {
		t.Fatalf("NNPACK breaker = %v, want open", got)
	}
	var st BreakerStatus
	for _, s := range set.Snapshot() {
		if s.Library == primitives.NNPACK.String() {
			st = s
		}
	}
	if st.Trips == 0 {
		t.Fatalf("NNPACK breaker never tripped: %+v", st)
	}
	if st.FastFails == 0 {
		t.Fatalf("no fast-fails recorded — breaker did not shed load: %+v", st)
	}
	// Fast-fails short-circuit before the source: the broken backend
	// was touched only while the breaker was closed or probing, i.e.
	// its failure count, not once per candidate × sample × retry.
	if calls := failing.calls.Load(); calls != st.Failures {
		t.Fatalf("broken backend saw %d calls, breaker recorded %d failures — fast-fails leaked through", calls, st.Failures)
	}

	// Healthy libraries kept flowing.
	for _, s := range set.Snapshot() {
		if s.Library != primitives.NNPACK.String() && s.Trips != 0 {
			t.Fatalf("healthy library %s tripped: %+v", s.Library, s)
		}
	}
}

// TestGuardSourceCancelNotCounted checks that a measurement failing
// because the caller's context died is reported to no breaker.
func TestGuardSourceCancelNotCounted(t *testing.T) {
	set := NewBreakerSet(&BreakerConfig{FailureThreshold: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := GuardSource(set, "p", canceledSource{})
	p := primitives.PVanilla
	if _, err := src.MeasureSample(ctx, 1, p, 0); err == nil {
		t.Fatal("expected error from canceled source")
	}
	if got := set.For("p", p.Lib.String()).State(); got != Closed {
		t.Fatalf("caller cancellation tripped the breaker: %v", got)
	}
}

// canceledSource fails every measurement with the context error.
type canceledSource struct{}

func (canceledSource) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	return 0, ctx.Err()
}

func (canceledSource) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	return 0, ctx.Err()
}

func (canceledSource) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	return 0, ctx.Err()
}

// TestWithHeartbeat checks the heartbeat decorator: nil passthrough,
// and a beat per completed measurement (observed via the watchdog's
// quiet clock).
func TestWithHeartbeat(t *testing.T) {
	if got := WithHeartbeat(nil, canceledSource{}); got == nil {
		t.Fatal("nil heartbeat must return the source unchanged")
	}
	clk := &fakeClock{t: time.Unix(5000, 0)}
	w := NewWatchdog(50*time.Millisecond, 1)
	w.now = clk.now
	defer w.Stop()
	hb := w.Watch("profiling", func(err error) { t.Errorf("fired: %v", err) })
	src := WithHeartbeat(hb, canceledSource{})
	// Without beats this would stall at 50ms; a measurement every
	// 40ms keeps it alive.
	p := primitives.PVanilla
	for i := 0; i < 5; i++ {
		clk.advance(40 * time.Millisecond)
		src.MeasureSample(context.Background(), 1, p, 0)
		if n := w.Sweep(); n != 0 {
			t.Fatalf("stalled despite measurement beats (iteration %d)", i)
		}
	}
	hb.Stop()
}
