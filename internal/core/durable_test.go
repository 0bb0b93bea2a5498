package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/searchplan"
)

// marshalInto returns a Save sink that marshals each boundary snapshot
// into *data, so *data holds the last one when the search returns.
func marshalInto(data *[]byte) func(*Snapshot) error {
	return func(s *Snapshot) (err error) {
		*data, err = s.Marshal()
		return err
	}
}

// TestSplitSearchProperty (property test): a search split at an
// arbitrary episode boundary — checkpoint, then restore — must reach a
// final best within tolerance of the unsplit run under the same
// config, across several seeds and random split points. The split run
// is not bit-identical (the RNG is re-derived at the boundary) but the
// learned state carries over, so quality must not degrade.
func TestSplitSearchProperty(t *testing.T) {
	plan := searchplan.Compile(profiled(t, models.MustBuild("mobilenet-v1"), primitives.ModeGPGPU))
	const episodes = 600
	rng := rand.New(rand.NewSource(99))
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		seed := seed
		split := 1 + rng.Intn(episodes-1)
		t.Run(fmt.Sprintf("seed%d-split%d", seed, split), func(t *testing.T) {
			cfg := Config{Episodes: episodes, Seed: seed}
			mono := SearchPlanned(plan, cfg)

			_, snap := stopAt(t, plan, cfg, split, 1)
			var finEp int
			split2, err := SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: episodes, From: snap, Save: finalEpisode(&finEp)})
			if err != nil {
				t.Fatal(err)
			}
			if finEp != episodes {
				t.Fatalf("final episode %d, want %d", finEp, episodes)
			}
			// 5% tolerance: the halves share the Q-table, so the split
			// run must stay in the same quality band as the monolith.
			if split2.Time > mono.Time*1.05 {
				t.Errorf("split at %d: best %.6g vs monolithic %.6g (>5%% worse)", split, split2.Time, mono.Time)
			}
		})
	}
}

func TestSnapshotRoundTripAndValidation(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	var data []byte
	res, err := SearchCheckpointedPlanned(searchplan.Compile(tab), Config{Episodes: 200, Seed: 3},
		DurableOptions{Every: 64, Save: marshalInto(&data)})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(data, tab)
	if err != nil {
		t.Fatal(err)
	}
	if snap.BestTime != res.Time || snap.Checkpoint.Episode != 200 {
		t.Fatalf("round trip: %+v (result best %v)", snap, res.Time)
	}
	if again, err := snap.Marshal(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-marshaled snapshot differs (err %v)", err)
	}

	// Schema validation: a best time that disagrees with the table's
	// own evaluation is rejected (the digest-style consistency check).
	tampered := []byte(string(data))
	// Flip one digit of the best_time field via JSON-level surgery.
	snap2 := *snap
	snap2.BestTime *= 1.5
	bad, err := snap2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(bad, tab); err == nil {
		t.Error("inconsistent best time accepted")
	}
	if _, err := LoadSnapshot(tampered[:len(tampered)/2], tab); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// A snapshot for a different network shape is rejected.
	other := profiled(t, models.MustBuild("mobilenet-v1"), primitives.ModeGPGPU)
	if _, err := LoadSnapshot(data, other); err == nil {
		t.Error("snapshot accepted against mismatched table")
	}
}

// TestCheckpointedResumeIsExact: kill a checkpointed search at each
// snapshot boundary in turn and resume from the saved snapshot; the
// final best and the final agent checkpoint's bytes must be identical
// to an uninterrupted run at the same cadence — the durable-search
// acceptance invariant. Boundary 1 is taken before the 128-episode
// replay buffer fills, so it also checks that a resume keeps the
// configured replay capacity.
func TestCheckpointedResumeIsExact(t *testing.T) {
	tab := profiled(t, models.MustBuild("mobilenet-v1"), primitives.ModeGPGPU)
	plan := searchplan.Compile(tab)
	cfg := Config{Episodes: 500, Seed: 7}
	const every = 90 // deliberately not a divisor of the budget

	// finalCheckpoint records the agent checkpoint of every boundary,
	// so after the run it holds the last one's bytes.
	finalCheckpoint := func(data *[]byte) func(*Snapshot) error {
		return func(s *Snapshot) (err error) {
			*data, err = s.Checkpoint.Marshal()
			return err
		}
	}
	var fullCk []byte
	full, err := SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: every, Save: finalCheckpoint(&fullCk)})
	if err != nil {
		t.Fatal(err)
	}

	for kill := 1; kill <= 5; kill++ {
		// Interrupt after snapshot kill: keep only the snapshot a crash
		// would have left on disk.
		var kept *Snapshot
		saves := 0
		_, err = SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: every, Save: func(s *Snapshot) error {
			saves++
			if saves == kill {
				data, err := s.Marshal()
				if err != nil {
					return err
				}
				back, err := LoadSnapshot(data, tab)
				if err != nil {
					return err
				}
				kept = back
				return fmt.Errorf("simulated crash")
			}
			return nil
		}})
		if err == nil || kept == nil {
			t.Fatalf("kill %d: simulated crash not triggered (err %v)", kill, err)
		}

		var resumedCk []byte
		resumed, err := SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: every, From: kept, Save: finalCheckpoint(&resumedCk)})
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Time != full.Time {
			t.Errorf("kill %d: resumed best %.9g, uninterrupted %.9g", kill, resumed.Time, full.Time)
		}
		for i := range full.Assignment {
			if resumed.Assignment[i] != full.Assignment[i] {
				t.Fatalf("kill %d: assignment diverges at layer %d", kill, i)
			}
		}
		if !bytes.Equal(resumedCk, fullCk) {
			t.Errorf("kill %d: final checkpoint bytes differ from the uninterrupted run's", kill)
		}
		if want := cfg.Episodes - kept.Checkpoint.Episode; resumed.Episodes != want {
			t.Errorf("kill %d: resumed session ran %d episodes, want %d", kill, resumed.Episodes, want)
		}
	}
}

func TestSearchCheckpointedNothingToResume(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	plan := searchplan.Compile(tab)
	var data []byte
	if _, err := SearchCheckpointedPlanned(plan, Config{Episodes: 100, Seed: 1}, DurableOptions{Every: 50, Save: marshalInto(&data)}); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(data, tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SearchCheckpointedPlanned(plan, Config{Episodes: 100, Seed: 1}, DurableOptions{From: snap}); err == nil {
		t.Error("resuming a completed run should error")
	}
}

// TestSearchCheckpointedSaveFailureAborts: a sink error stops the
// search — durability failures are loud.
func TestSearchCheckpointedSaveFailureAborts(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	boom := fmt.Errorf("disk full")
	_, err := SearchCheckpointedPlanned(searchplan.Compile(tab), Config{Episodes: 100, Seed: 1}, DurableOptions{
		Every: 10,
		Save:  func(*Snapshot) error { return boom },
	})
	if err == nil {
		t.Fatal("save failure swallowed")
	}
}
