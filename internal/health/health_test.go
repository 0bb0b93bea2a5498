package health

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
)

func TestFingerprintsDeterministicAndSorted(t *testing.T) {
	net, err := models.Build("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	board, _ := platform.Preset("tx2-like")
	build := func() []Fingerprint {
		sim := profile.NewSimSource(net, board)
		tab, _, err := profile.RunContext(context.Background(), net, sim,
			profile.Options{Mode: primitives.ModeCPU, Samples: 3})
		if err != nil {
			t.Fatal(err)
		}
		return Fingerprints("tx2-like", tab)
	}
	a, b := build(), build()
	if len(a) == 0 {
		t.Fatal("no fingerprints from a fully measured table")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fingerprints not deterministic:\n%v\n%v", a, b)
	}
	for i, fp := range a {
		if fp.Platform != "tx2-like" {
			t.Errorf("fingerprint %d platform = %q", i, fp.Platform)
		}
		if fp.Entries <= 0 || fp.MedianSec <= 0 || fp.MADSec < 0 {
			t.Errorf("degenerate fingerprint: %+v", fp)
		}
		if i > 0 && a[i-1].Library >= fp.Library {
			t.Errorf("fingerprints not sorted by library: %q before %q", a[i-1].Library, fp.Library)
		}
	}
}

func TestDriftedBand(t *testing.T) {
	c := &Config{Band: 4}
	// MAD-scaled band: 4 * stats.MADSigma * 0.01 ≈ 0.0593 around baseline 1.
	if c.Drifted(1.05, 1.0, 0.01) {
		t.Error("inside the MAD band flagged as drifted")
	}
	if !c.Drifted(1.10, 1.0, 0.01) {
		t.Error("outside the MAD band not flagged")
	}
	// Near-zero MAD falls back to the 2% floor: band = 4 * 0.02 = 8%.
	if c.Drifted(1.07, 1.0, 0) {
		t.Error("inside the floor band flagged as drifted")
	}
	if !c.Drifted(1.09, 1.0, 0) {
		t.Error("outside the floor band not flagged")
	}
	// Exact reproduction (deterministic source) never drifts.
	if c.Drifted(1.0, 1.0, 0) {
		t.Error("exact reproduction flagged as drifted")
	}
	// nil config uses the defaults without panicking.
	var nilCfg *Config
	if nilCfg.BandWidth() != 4 || nilCfg.Size() != 4 || nilCfg.ConfirmCount() != 2 {
		t.Error("nil config defaults wrong")
	}
}

func TestCanaryIndicesDeterministicInRange(t *testing.T) {
	for round := int64(1); round <= 20; round++ {
		a := CanaryIndices(7, round, 50, 4)
		b := CanaryIndices(7, round, 50, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d not deterministic: %v vs %v", round, a, b)
		}
		if len(a) != 4 {
			t.Fatalf("round %d: got %d indices, want 4", round, len(a))
		}
		for _, ix := range a {
			if ix < 0 || ix >= 50 {
				t.Fatalf("round %d: index %d out of range", round, ix)
			}
		}
	}
	if got := CanaryIndices(1, 1, 3, 10); len(got) != 3 {
		t.Errorf("k >= n should return all indices, got %v", got)
	}
	if got := CanaryIndices(1, 1, 0, 4); got != nil {
		t.Errorf("n = 0 should return nil, got %v", got)
	}
	// Different seeds give different schedules (start offsets).
	s1 := CanaryIndices(1, 1, 1000, 2)
	s2 := CanaryIndices(2, 1, 1000, 2)
	if reflect.DeepEqual(s1, s2) {
		t.Errorf("seeds 1 and 2 produced identical schedules %v", s1)
	}
}

func TestCanaryIndicesSweepCoverage(t *testing.T) {
	// Successive rounds must visit every entry within a bounded number
	// of rounds — canaries that never look at an entry never catch its
	// drift.
	const n, k = 23, 4
	seen := map[int]bool{}
	for round := int64(1); round <= int64(4*n); round++ {
		for _, ix := range CanaryIndices(3, round, n, k) {
			seen[ix] = true
		}
		if len(seen) == n {
			return
		}
	}
	t.Fatalf("after %d rounds only %d/%d entries visited", 4*n, len(seen), n)
}

func TestMonitorStateMachine(t *testing.T) {
	m := NewMonitor(2)
	atlasQuarantined := func() bool { return slices.Contains(m.QuarantinedLibs("p"), "ATLAS") }
	// One drifted entry: suspect, not quarantined.
	if m.NoteDrift("p", "ATLAS", 1) {
		t.Fatal("single drifted entry confirmed quarantine at confirm=2")
	}
	if atlasQuarantined() {
		t.Fatal("suspect pair reported quarantined")
	}
	// A clean round clears a suspect.
	m.NoteClean("p", "ATLAS")
	if st := m.Snapshot(); st[0].State != "fresh" || st[0].DriftedEntries != 0 {
		t.Fatalf("clean round did not reset suspect: %+v", st[0])
	}
	// Two drifted entries in one note: quarantined.
	if !m.NoteDrift("p", "ATLAS", 2) {
		t.Fatal("confirm threshold reached but quarantine not confirmed")
	}
	if !atlasQuarantined() {
		t.Fatal("confirmed pair not quarantined")
	}
	// Further drift accumulates without re-confirming.
	if m.NoteDrift("p", "ATLAS", 3) {
		t.Fatal("already quarantined pair re-confirmed")
	}
	// A clean round does NOT clear a quarantine.
	m.NoteClean("p", "ATLAS")
	if !atlasQuarantined() {
		t.Fatal("clean round cleared a confirmed quarantine")
	}
	if libs := m.QuarantinedLibs("p"); len(libs) != 1 || libs[0] != "ATLAS" {
		t.Fatalf("QuarantinedLibs = %v", libs)
	}
	// Heal resolves it; MarkHealed on a non-quarantined pair is a no-op.
	m.MarkHealed("p", "ATLAS", false)
	if atlasQuarantined() {
		t.Fatal("healed pair still quarantined")
	}
	if st := m.Snapshot(); st[0].State != "healed" {
		t.Fatalf("state after heal = %q", st[0].State)
	}
	m.MarkHealed("p", "OpenBLAS", true)
	if st := m.Snapshot(); len(st) != 2 || st[1].State != "fresh" {
		t.Fatalf("MarkHealed on a fresh pair should be a no-op: %+v", st)
	}
	// A healed pair that drifts again re-enters suspect from zero.
	if m.NoteDrift("p", "ATLAS", 1) {
		t.Fatal("healed pair jumped straight to quarantine")
	}
	if st := m.Snapshot(); st[0].State != "suspect" || st[0].DriftedEntries != 1 {
		t.Fatalf("re-drift after heal: %+v", st[0])
	}
	// Rolled-back terminal state.
	m2 := NewMonitor(1)
	m2.NoteDrift("p", "Sparse", 1)
	m2.MarkHealed("p", "Sparse", true)
	if st := m2.Snapshot(); st[0].State != "rolled-back" {
		t.Fatalf("rollback state = %q", st[0].State)
	}
}

func TestMonitorEpoch(t *testing.T) {
	m := NewMonitor(0)
	if m.Epoch() != 0 {
		t.Fatal("fresh monitor epoch not 0")
	}
	if m.NextEpoch() != 1 || m.NextEpoch() != 2 || m.Epoch() != 2 {
		t.Fatal("epoch counter broken")
	}
	m.NoteDrift("p", "L", 2)
	if st := m.Snapshot(); st[0].QuarantinedEpoch != 2 {
		t.Fatalf("quarantine epoch = %d, want 2", st[0].QuarantinedEpoch)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Fresh: "fresh", Suspect: "suspect", Quarantined: "quarantined",
		Healed: "healed", RolledBack: "rolled-back"}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), name)
		}
	}
	if State(99).String() != "State(99)" {
		t.Errorf("out-of-range state: %q", State(99).String())
	}
}
