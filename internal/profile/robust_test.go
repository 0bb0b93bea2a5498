package profile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/primitives"
)

// scriptedSource is a Source with per-call programmable behavior,
// layered over the simulator for realistic clean values.
// The attempt counter is mutex-protected: a timed-out attempt's
// goroutine may still be touching the map when the retry starts.
type scriptedSource struct {
	clean Source
	// sample intercepts MeasureSample; nil passes through.
	sample func(ctx context.Context, i int, p *primitives.Primitive, s, attempt int) (float64, bool, error)
	mu     sync.Mutex
	calls  map[string]int
}

func newScripted(t *testing.T, f func(ctx context.Context, i int, p *primitives.Primitive, s, attempt int) (float64, bool, error)) *scriptedSource {
	t.Helper()
	net := smallNet(t)
	return &scriptedSource{
		clean:  NewSimSource(net, platform.JetsonTX2Like()),
		sample: f,
		calls:  map[string]int{},
	}
}

func (s *scriptedSource) MeasureSample(ctx context.Context, i int, p *primitives.Primitive, sample int) (float64, error) {
	key := fmt.Sprintf("%d|%d|%d", i, p.Idx, sample)
	s.mu.Lock()
	attempt := s.calls[key]
	s.calls[key]++
	s.mu.Unlock()
	if s.sample != nil {
		if v, handled, err := s.sample(ctx, i, p, sample, attempt); handled {
			return v, err
		}
	}
	return s.clean.MeasureSample(ctx, i, p, sample)
}

func (s *scriptedSource) MeasureEdgePenalty(ctx context.Context, producer int, fp, tp *primitives.Primitive) (float64, error) {
	return s.clean.MeasureEdgePenalty(ctx, producer, fp, tp)
}

func (s *scriptedSource) MeasureOutputPenalty(ctx context.Context, output int, p *primitives.Primitive) (float64, error) {
	return s.clean.MeasureOutputPenalty(ctx, output, p)
}

func robustFast() *Robust {
	return &Robust{
		SampleTimeout: 250 * time.Millisecond,
		MaxRetries:    3,
		BackoffBase:   time.Microsecond,
		BackoffMax:    10 * time.Microsecond,
		TrimFraction:  0.1,
		MADK:          5,
	}
}

// TestRetryAbsorbsTransientErrors: failures that clear within the
// retry budget leave no exclusions and a fully populated table.
func TestRetryAbsorbsTransientErrors(t *testing.T) {
	net := smallNet(t)
	src := newScripted(t, func(_ context.Context, i int, _ *primitives.Primitive, s, attempt int) (float64, bool, error) {
		if i == 1 && s == 0 && attempt < 2 {
			return 0, true, errors.New("transient board hiccup")
		}
		return 0, false, nil
	})
	tab, rep, err := RunContext(context.Background(), net, src, Options{
		Mode: primitives.ModeCPU, Samples: 3, Robust: robustFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded() {
		t.Errorf("transient faults caused exclusions: %v", rep.Lines())
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded for transient failures")
	}
	for _, p := range tab.Candidates(1) {
		if math.IsInf(tab.Time(1, p), 1) {
			t.Errorf("layer 1 prim %d unmeasured despite retries", p)
		}
	}
}

// TestInvalidObservationsRejectedAndRetried: NaN/Inf/negative samples
// never enter the table; a retry that observes a clean value wins.
func TestInvalidObservationsRejectedAndRetried(t *testing.T) {
	net := smallNet(t)
	bads := []float64{math.NaN(), math.Inf(1), -1}
	src := newScripted(t, func(_ context.Context, i int, _ *primitives.Primitive, s, attempt int) (float64, bool, error) {
		if i == 2 && s < len(bads) && attempt == 0 {
			return bads[s], true, nil
		}
		return 0, false, nil
	})
	tab, rep, err := RunContext(context.Background(), net, src, Options{
		Mode: primitives.ModeCPU, Samples: 4, Robust: robustFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invalid != 3*len(tab.Candidates(2)) {
		t.Errorf("Invalid = %d, want %d", rep.Invalid, 3*len(tab.Candidates(2)))
	}
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			if v := tab.Time(i, p); !lut.ValidSeconds(v) || math.IsInf(v, 1) {
				t.Errorf("layer %d prim %d: invalid stored value %v", i, p, v)
			}
		}
	}
}

// TestTimeoutBoundsStalledMeasurement: a stalled attempt is killed by
// the per-sample timeout and the retry succeeds.
func TestTimeoutBoundsStalledMeasurement(t *testing.T) {
	net := smallNet(t)
	src := newScripted(t, func(ctx context.Context, i int, _ *primitives.Primitive, s, attempt int) (float64, bool, error) {
		if i == 1 && s == 0 && attempt == 0 {
			<-ctx.Done() // honor the attempt deadline
			return 0, true, ctx.Err()
		}
		return 0, false, nil
	})
	pol := robustFast()
	pol.SampleTimeout = 20 * time.Millisecond
	start := time.Now()
	_, rep, err := RunContext(context.Background(), net, src, Options{
		Mode: primitives.ModeCPU, Samples: 2, Robust: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts == 0 {
		t.Error("stall did not register a timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("profiling took %v, stall should cost ~one timeout", elapsed)
	}
}

// TestDegradationDropsPersistentlyFailingPrimitive: a primitive that
// fails every attempt on one layer is excluded there — Vanilla
// fallback — while surviving elsewhere, and the degraded table still
// round-trips Load.
func TestDegradationDropsPersistentlyFailingPrimitive(t *testing.T) {
	net := smallNet(t)
	var victim *primitives.Primitive
	for _, p := range primitives.Registry() {
		if p.Proc == primitives.CPU && p != primitives.PVanilla && supports(net.Layers[1], p, primitives.ModeCPU) {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Fatal("no non-Vanilla CPU candidate on layer 1")
	}
	src := newScripted(t, func(_ context.Context, i int, p *primitives.Primitive, s, attempt int) (float64, bool, error) {
		if i == 1 && p == victim {
			return 0, true, errors.New("kernel faults on this shape")
		}
		return 0, false, nil
	})
	tab, rep, err := RunContext(context.Background(), net, src, Options{
		Mode: primitives.ModeCPU, Samples: 3, Robust: robustFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded() || len(rep.Excluded) != 1 {
		t.Fatalf("Excluded = %+v, want exactly the victim", rep.Excluded)
	}
	e := rep.Excluded[0]
	if e.Layer != 1 || e.Primitive != victim.Name || !strings.Contains(e.Reason, "kernel faults") {
		t.Errorf("exclusion = %+v", e)
	}
	for _, c := range tab.Candidates(1) {
		if c == victim.Idx {
			t.Error("victim still a candidate of layer 1")
		}
	}
	if !tab.IsCandidate(1, primitives.PVanilla.Idx) {
		t.Error("Vanilla fallback missing from layer 1")
	}
	// The reduced table is fully valid: serialize and reload.
	data, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lut.Load(data, net); err != nil {
		t.Errorf("degraded table failed Load round trip: %v", err)
	}
}

// TestNoSurvivingCandidateErrors: when every primitive of a layer
// fails persistently, profiling reports an error instead of producing
// an unschedulable table.
func TestNoSurvivingCandidateErrors(t *testing.T) {
	net := smallNet(t)
	src := newScripted(t, func(_ context.Context, i int, _ *primitives.Primitive, s, attempt int) (float64, bool, error) {
		if i == 1 {
			return 0, true, errors.New("layer is cursed")
		}
		return 0, false, nil
	})
	_, rep, err := RunContext(context.Background(), net, src, Options{
		Mode: primitives.ModeCPU, Samples: 2, Robust: robustFast(),
	})
	if err == nil || !strings.Contains(err.Error(), "no surviving primitive") {
		t.Fatalf("err = %v, want no-surviving-primitive", err)
	}
	if len(rep.Excluded) == 0 {
		t.Error("report does not record the exclusions that led to the error")
	}
}

// TestRobustAggregationRejectsSpikes: with outliers injected into a
// noiseless source, the MAD/trimmed aggregate stays at the true value
// while the raw mean would be dragged far off.
func TestRobustAggregationRejectsSpikes(t *testing.T) {
	net := smallNet(t)
	noiseless := platform.JetsonTX2Like()
	noiseless.MeasurementNoise = 0
	truth, err := Run(net, NewSimSource(net, noiseless), Options{Mode: primitives.ModeCPU, Samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	clean := NewSimSource(net, noiseless)
	spiky := newScripted(t, nil)
	spiky.clean = clean
	spiky.sample = func(ctx context.Context, i int, p *primitives.Primitive, s, attempt int) (float64, bool, error) {
		v, err := clean.MeasureSample(ctx, i, p, s)
		if s%10 == 3 { // every 10th sample is a 100x scheduling spike
			return v * 100, true, err
		}
		return v, true, err
	}
	tab, rep, err := RunContext(context.Background(), net, spiky, Options{
		Mode: primitives.ModeCPU, Samples: 20, Robust: robustFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outliers == 0 {
		t.Error("no outliers rejected despite injected spikes")
	}
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			got, want := tab.Time(i, p), truth.Time(i, p)
			if math.Abs(got-want) > 0.05*want {
				t.Errorf("layer %d prim %d: robust mean %v vs truth %v (spikes leaked)", i, p, got, want)
			}
		}
	}
}

// TestRunContextCancellation: a canceled context aborts promptly with
// the context error rather than degrading.
func TestRunContextCancellation(t *testing.T) {
	net := smallNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	src := newScripted(t, func(_ context.Context, i int, _ *primitives.Primitive, s, attempt int) (float64, bool, error) {
		n++
		if n == 5 {
			cancel()
		}
		return 0, false, nil
	})
	_, _, err := RunContext(ctx, net, src, Options{
		Mode: primitives.ModeCPU, Samples: 3, Robust: robustFast(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStrictModeMatchesLegacyMean: with Robust nil the new pipeline is
// byte-identical to the historical raw-mean protocol.
func TestStrictModeMatchesLegacyMean(t *testing.T) {
	net := smallNet(t)
	pl := platform.JetsonTX2Like()
	a, err := Run(net, NewSimSource(net, pl), Options{Mode: primitives.ModeGPGPU, Samples: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunContext(context.Background(), net, NewSimSource(net, pl), Options{Mode: primitives.ModeGPGPU, Samples: 7})
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.MarshalJSON()
	db, _ := b.MarshalJSON()
	if string(da) != string(db) {
		t.Error("strict RunContext differs from Run")
	}
}

// TestStrictModeRejectsInvalidObservation: without a Robust policy an
// invalid sample is an immediate error (never a silent table entry).
func TestStrictModeRejectsInvalidObservation(t *testing.T) {
	net := smallNet(t)
	src := newScripted(t, func(_ context.Context, i int, _ *primitives.Primitive, s, attempt int) (float64, bool, error) {
		if i == 1 {
			return math.NaN(), true, nil
		}
		return 0, false, nil
	})
	_, _, err := RunContext(context.Background(), net, src, Options{Mode: primitives.ModeCPU, Samples: 2})
	if err == nil || !strings.Contains(err.Error(), "invalid observation") {
		t.Fatalf("err = %v, want invalid-observation error", err)
	}
}

// TestEnergyProfileDegradesLikeTime profiles joules through the same
// fault schedule and Robust policy as seconds: the schedule keys on
// the measurement identity, not its value, so both tables drop the
// same primitives and the energy pass reports its own degradation.
func TestEnergyProfileDegradesLikeTime(t *testing.T) {
	net := smallNet(t)
	pl := platform.JetsonTX2Like()
	cfg := DefaultFaults(42)
	cfg.PermanentRate = 0.2
	opts := Options{Mode: primitives.ModeGPGPU, Samples: 5, Robust: robustFast()}
	tt, trep, err := RunContext(context.Background(), net, NewFaultSource(NewSimSource(net, pl), cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	et, erep, err := RunContext(context.Background(), net, NewFaultSource(NewSimEnergySource(net, pl), cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !erep.Degraded() {
		t.Fatal("energy profile under permanent faults reports no degradation")
	}
	if !reflect.DeepEqual(trep.Excluded, erep.Excluded) {
		t.Errorf("exclusions differ:\ntime   %+v\nenergy %+v", trep.Excluded, erep.Excluded)
	}
	for i := 0; i < tt.NumLayers(); i++ {
		if !reflect.DeepEqual(tt.Candidates(i), et.Candidates(i)) {
			t.Errorf("layer %d: candidates %v (time) vs %v (energy)", i, tt.Candidates(i), et.Candidates(i))
		}
	}
}
