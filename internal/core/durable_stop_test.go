package core

import (
	"errors"
	"testing"

	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/searchplan"
)

// stopAt runs a checkpointed search at cadence every and stops it with
// ErrStopEarly at the n-th boundary, returning the best-so-far result
// and the snapshot saved there. The search ends inside that Save, so
// the snapshot stays valid after it returns.
func stopAt(t *testing.T, p *searchplan.Plan, cfg Config, every, n int) (*Result, *Snapshot) {
	t.Helper()
	var kept *Snapshot
	saves := 0
	best, err := SearchCheckpointedPlanned(p, cfg, DurableOptions{Every: every, Save: func(s *Snapshot) error {
		if saves++; saves < n {
			return nil
		}
		kept = s
		return ErrStopEarly
	}})
	if !errors.Is(err, ErrStopEarly) {
		t.Fatalf("err = %v, want ErrStopEarly", err)
	}
	return best, kept
}

// finalEpisode returns a Save sink that records the episode count of
// each boundary snapshot into *ep.
func finalEpisode(ep *int) func(*Snapshot) error {
	return func(s *Snapshot) error {
		*ep = s.Checkpoint.Episode
		return nil
	}
}

// TestSearchCheckpointedStopEarly: a Save callback returning
// ErrStopEarly (the deadline-budget signal) stops the search at the
// snapshot boundary but still hands back the best-so-far result and a
// resumable snapshot — and resuming from that snapshot reproduces the
// uninterrupted run exactly. This is the contract the serving layer's
// deadline budgets lean on.
func TestSearchCheckpointedStopEarly(t *testing.T) {
	plan := searchplan.Compile(profiled(t, models.MustBuild("mobilenet-v1"), primitives.ModeGPGPU))
	cfg := Config{Episodes: 500, Seed: 7}
	const every = 90 // deliberately not a divisor of the budget

	full, err := SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: every})
	if err != nil {
		t.Fatal(err)
	}

	// Budget "expires" at the second snapshot boundary (episode 180).
	best, snap := stopAt(t, plan, cfg, every, 2)
	if best == nil || snap == nil {
		t.Fatal("early stop must still return best-so-far and a snapshot")
	}
	const boundary = 2 * every
	if best.Episodes != boundary {
		t.Errorf("best.Episodes = %d, want %d (episodes actually run)", best.Episodes, boundary)
	}
	if snap.Checkpoint.Episode != boundary {
		t.Errorf("snapshot at episode %d, want %d", snap.Checkpoint.Episode, boundary)
	}
	if len(best.Assignment) == 0 {
		t.Fatal("best-so-far has no assignment")
	}
	if best.Time <= 0 {
		t.Fatalf("best-so-far time %v", best.Time)
	}
	// The interrupted prefix can never beat the full run.
	if best.Time < full.Time {
		t.Errorf("prefix best %.9g beats uninterrupted %.9g", best.Time, full.Time)
	}

	// Resuming from the early-stop snapshot completes the budget and
	// lands exactly where the uninterrupted run did.
	var finEp int
	resumed, err := SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: every, From: snap, Save: finalEpisode(&finEp)})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Time != full.Time {
		t.Errorf("resumed best %.9g, uninterrupted %.9g", resumed.Time, full.Time)
	}
	for i := range full.Assignment {
		if resumed.Assignment[i] != full.Assignment[i] {
			t.Fatalf("assignment diverges at layer %d", i)
		}
	}
	if resumed.Episodes != cfg.Episodes-boundary {
		t.Errorf("resumed session ran %d episodes, want %d", resumed.Episodes, cfg.Episodes-boundary)
	}
	if finEp != cfg.Episodes {
		t.Errorf("final snapshot at episode %d, want %d", finEp, cfg.Episodes)
	}
}
