package profile

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
)

// testFaults is an aggressive schedule exercising every fault type
// with fast stalls, sized for test budgets.
func testFaults(seed int64) FaultConfig {
	return FaultConfig{
		Seed:          seed,
		TransientRate: 0.10,
		PermanentRate: 0.05,
		StallRate:     0.02,
		Stall:         10 * time.Millisecond,
		NaNRate:       0.05,
		SpikeRate:     0.08,
		SpikeFactor:   50,
	}
}

func runFaulty(t *testing.T, seed int64) (*lut.Table, *Report) {
	t.Helper()
	net := models.MustBuild("lenet5")
	src := NewFaultSource(NewSimSource(net, platform.JetsonTX2Like()), testFaults(seed))
	pol := robustFast()
	pol.SampleTimeout = 5 * time.Millisecond // faster than the stall
	tab, rep, err := RunContext(context.Background(), net, src, Options{
		Mode: primitives.ModeGPGPU, Samples: 5, Robust: pol,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return tab, rep
}

// TestFaultInjectionEndToEnd: under a seeded schedule mixing transient
// errors, stalls, NaN samples and permanent failures, profiling
// completes; transient faults are retried away, persistent ones land
// in the degradation report, and the result is a valid table.
func TestFaultInjectionEndToEnd(t *testing.T) {
	net := models.MustBuild("lenet5")
	tab, rep := runFaulty(t, 42)

	if !rep.Flaky() {
		t.Error("schedule injected nothing — rates too low for this net?")
	}
	if rep.Retries == 0 || rep.Invalid == 0 {
		t.Errorf("expected retries and invalid observations, got %d/%d", rep.Retries, rep.Invalid)
	}
	// Permanent failures must appear as exclusions, and every exclusion
	// must be reflected in the candidate sets.
	for _, e := range rep.Excluded {
		p, ok := primitives.ByName(e.Primitive)
		if !ok {
			t.Fatalf("exclusion names unknown primitive %q", e.Primitive)
		}
		if tab.IsCandidate(e.Layer, p.Idx) {
			t.Errorf("excluded %s still candidate of layer %d", e.Primitive, e.Layer)
		}
	}
	// The degraded table survives a serialize/Load round trip — the
	// acceptance bar for "reduced but valid".
	data, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lut.Load(data, net); err != nil {
		t.Errorf("faulty-profiled table failed Load round trip: %v", err)
	}
}

// TestFaultScheduleDeterministic: equal seeds produce byte-equal
// tables and identical reports; different seeds produce different
// fault patterns.
func TestFaultScheduleDeterministic(t *testing.T) {
	ta, ra := runFaulty(t, 7)
	tb, rb := runFaulty(t, 7)
	da, _ := ta.MarshalJSON()
	db, _ := tb.MarshalJSON()
	if string(da) != string(db) {
		t.Error("same fault seed produced different tables")
	}
	if ra.Render() != rb.Render() {
		t.Errorf("same fault seed produced different reports:\n%s\nvs\n%s", ra.Render(), rb.Render())
	}
	_, rc := runFaulty(t, 8)
	if ra.Render() == rc.Render() && ra.Retries == rc.Retries && ra.Invalid == rc.Invalid {
		t.Error("different fault seeds produced identical fault patterns")
	}
}

// TestFaultSourceInjectedErrorsAreTyped: injected failures carry
// ErrInjected so they are distinguishable from real board errors.
func TestFaultSourceInjectedErrorsAreTyped(t *testing.T) {
	net := models.MustBuild("lenet5")
	src := NewFaultSource(NewSimSource(net, platform.JetsonTX2Like()),
		FaultConfig{Seed: 1, TransientRate: 1, TransientBurst: 1})
	p := primitives.ByID(primitives.PVanilla.Idx)
	_, err := src.MeasureSample(context.Background(), 1, p, 0)
	var inj *ErrInjected
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want *ErrInjected", err)
	}
	// The transient burst clears: the second attempt succeeds.
	if _, err := src.MeasureSample(context.Background(), 1, p, 0); err != nil {
		t.Fatalf("attempt after burst failed: %v", err)
	}
}

// TestFaultSourceStallHonorsContext: a stalled measurement unblocks as
// soon as its context is canceled — the property the per-sample
// timeout and SIGINT handling depend on.
func TestFaultSourceStallHonorsContext(t *testing.T) {
	net := models.MustBuild("lenet5")
	src := NewFaultSource(NewSimSource(net, platform.JetsonTX2Like()),
		FaultConfig{Seed: 1, StallRate: 1, Stall: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := src.MeasureSample(ctx, 1, primitives.ByID(primitives.PVanilla.Idx), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("stall ignored the context")
	}
}
