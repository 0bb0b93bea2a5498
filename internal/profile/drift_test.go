package profile

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
)

// driftFaults is a drift-only schedule: no error injection, so every
// change in a measurement is attributable to the drift multiplier.
func driftFaults(seed int64) FaultConfig {
	return FaultConfig{
		Seed:            seed,
		DriftStep:       []string{"ATLAS"},
		DriftRamp:       []string{"NNPACK"},
		DriftFactor:     3,
		DriftRampRounds: 4,
	}
}

// measureAll profiles lenet5 (cpu mode) through src and returns the
// marshaled table bytes.
func driftTable(t *testing.T, src Source) []byte {
	t.Helper()
	net := models.MustBuild("lenet5")
	tab, _, err := RunContext(context.Background(), net, src, Options{
		Mode: primitives.ModeCPU, Samples: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDriftFactorSchedule pins the per-round multiplier of step and
// ramp libraries: step jumps straight to the saturated factor, ramp
// approaches it linearly and saturates, untargeted libraries never
// move, and round 0 is always drift-free.
func TestDriftFactorSchedule(t *testing.T) {
	net := models.MustBuild("lenet5")
	f := NewFaultSource(NewSimSource(net, platform.JetsonTX2Like()), driftFaults(1))
	cases := []struct {
		round      int64
		step, ramp float64
	}{
		{0, 1, 1},
		{1, 3, 1.5},
		{2, 3, 2},
		{3, 3, 2.5},
		{4, 3, 3},
		{9, 3, 3}, // saturated
	}
	for _, c := range cases {
		f.SetDriftRound(c.round)
		if got := f.driftFactor("ATLAS"); math.Abs(got-c.step) > 1e-12 {
			t.Errorf("round %d: step factor = %v, want %v", c.round, got, c.step)
		}
		if got := f.driftFactor("NNPACK"); math.Abs(got-c.ramp) > 1e-12 {
			t.Errorf("round %d: ramp factor = %v, want %v", c.round, got, c.ramp)
		}
		if got := f.driftFactor("OpenBLAS"); got != 1 {
			t.Errorf("round %d: untargeted library drifted by %v", c.round, got)
		}
	}
	if f.DriftRound() != 9 {
		t.Errorf("DriftRound = %d, want 9", f.DriftRound())
	}
	f.SetDriftRound(0)
	if f.AdvanceDrift() != 1 || f.DriftRound() != 1 {
		t.Error("AdvanceDrift did not advance to 1")
	}
}

// TestDriftedTablesReproducible: a table profiled at drift round r is
// byte-identical to any other table profiled at round r (fresh source,
// fresh run) — the property the self-healing byte-identity gate builds
// on — and differs from the round-0 table only in drifted libraries.
func TestDriftedTablesReproducible(t *testing.T) {
	net := models.MustBuild("lenet5")
	board := platform.JetsonTX2Like()
	at := func(round int64) []byte {
		src := NewFaultSource(NewSimSource(net, board), driftFaults(7))
		src.SetDriftRound(round)
		return driftTable(t, src)
	}
	clean := at(0)
	cleanRef := driftTable(t, NewSimSource(net, board))
	if string(clean) != string(cleanRef) {
		t.Fatal("round-0 drift source changed the table vs the plain simulator")
	}
	d1a, d1b := at(3), at(3)
	if string(d1a) != string(d1b) {
		t.Fatal("two fresh profiles at the same drift round differ")
	}
	if string(d1a) == string(clean) {
		t.Fatal("drift round 3 produced the undrifted table")
	}

	// Only the targeted libraries moved, and by the scheduled factor.
	cleanTab, err := lut.Load(clean, net)
	if err != nil {
		t.Fatal(err)
	}
	driftTab, err := lut.Load(d1a, net)
	if err != nil {
		t.Fatal(err)
	}
	wantFactor := map[string]float64{"ATLAS": 3, "NNPACK": 2.5}
	for i := 1; i < net.Len(); i++ {
		for _, p := range primitives.Candidates(net.Layers[i], primitives.ModeCPU) {
			base := cleanTab.Time(i, p.Idx)
			got := driftTab.Time(i, p.Idx)
			want := base
			if fac, ok := wantFactor[p.Lib.String()]; ok {
				want = base * fac
			}
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Errorf("layer %d %s (%s): drifted time %v, want %v (base %v)",
					i, p.Name, p.Lib, got, want, base)
			}
		}
	}
}

// TestFaultLibrariesTargeting: with FaultLibraries set, the error
// schedule only ever touches measurements of the named libraries —
// other libraries' tables stay byte-identical to a fault-free run.
func TestFaultLibrariesTargeting(t *testing.T) {
	net := models.MustBuild("lenet5")
	board := platform.JetsonTX2Like()
	cfg := FaultConfig{
		Seed:           11,
		TransientRate:  1.0, // every targeted measurement fails its burst
		TransientBurst: 1,
		FaultLibraries: []string{"NNPACK"},
	}
	src := NewFaultSource(NewSimSource(net, board), cfg)
	pol := DefaultRobust()
	tab, rep, err := RunContext(context.Background(), net, src, Options{
		Mode: primitives.ModeCPU, Samples: 3, Robust: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 {
		t.Fatal("targeted schedule injected nothing")
	}
	// The reference must aggregate under the same robust policy — the
	// comparison isolates the fault targeting, not the aggregation.
	cleanTab, _, err := RunContext(context.Background(), net, NewSimSource(net, board), Options{
		Mode: primitives.ModeCPU, Samples: 3, Robust: DefaultRobust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < net.Len(); i++ {
		for _, p := range primitives.Candidates(net.Layers[i], primitives.ModeCPU) {
			if p.Lib.String() == "NNPACK" {
				continue
			}
			if got, want := tab.Time(i, p.Idx), cleanTab.Time(i, p.Idx); got != want {
				t.Errorf("untargeted %s (%s) layer %d: %v, want clean %v", p.Name, p.Lib, i, got, want)
			}
		}
	}
}

// TestRemeasureSampleMatchesProfile: a canary re-measurement through
// RemeasureSample reproduces exactly the aggregate the full profiling
// run stored for that (layer, primitive) — the property that makes the
// drift comparison meaningful (zero false positives on a stable
// environment).
func TestRemeasureSampleMatchesProfile(t *testing.T) {
	net := models.MustBuild("lenet5")
	board := platform.JetsonTX2Like()
	const samples = 5
	sim := NewSimSource(net, board)
	pol := DefaultRobust()
	tab, _, err := RunContext(context.Background(), net, sim, Options{
		Mode: primitives.ModeCPU, Samples: samples, Robust: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < net.Len(); i++ {
		for _, p := range primitives.Candidates(net.Layers[i], primitives.ModeCPU) {
			want := tab.Time(i, p.Idx)
			got, err := RemeasureSample(context.Background(), sim, pol, i, p, samples)
			if err != nil {
				t.Fatalf("layer %d %s: %v", i, p.Name, err)
			}
			if got != want {
				t.Errorf("layer %d %s: canary %v != stored %v", i, p.Name, got, want)
			}
		}
	}
	if _, err := RemeasureSample(context.Background(), sim, pol, 1, primitives.PVanilla, 0); err == nil {
		t.Error("samples=0 did not error")
	}
}

// TestFastFailCounter: a NoRetry abort increments Report.FastFails so
// the serve daemon can mark tables built under breaker fast-fails.
func TestFastFailCounter(t *testing.T) {
	var rep Report
	m := &meter{policy: DefaultRobust(), report: &rep}
	_, err := m.series(context.Background(), text("x"), 2, func(ctx context.Context, s int) (float64, error) {
		return 0, &noRetryErr{msg: "fast fail"}
	})
	if err == nil {
		t.Fatal("fast-failing series did not error")
	}
	if rep.FastFails == 0 {
		t.Fatalf("FastFails = %d, want > 0", rep.FastFails)
	}
	var zero Report
	if !reflect.DeepEqual(rep.Excluded, zero.Excluded) {
		t.Fatal("fast-fail recorded an exclusion at the meter level")
	}
}
