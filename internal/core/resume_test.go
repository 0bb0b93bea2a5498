package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/qlearn"
	"repro/internal/searchplan"
)

func TestResumableSearchContinuesSchedule(t *testing.T) {
	plan := searchplan.Compile(profiled(t, models.MustBuild("mobilenet-v1"), primitives.ModeGPGPU))
	cfg := Config{Episodes: 1000, Seed: 1}

	// Part 1: episodes 0..499 (full exploration), stopped at the first
	// boundary.
	part1, snap := stopAt(t, plan, cfg, 500, 1)
	if snap.Checkpoint.Episode != 500 {
		t.Fatalf("checkpoint episode = %d", snap.Checkpoint.Episode)
	}
	for _, pt := range part1.Curve {
		if pt.Epsilon != 1 {
			t.Fatalf("episode %d epsilon %v during exploration half", pt.Episode, pt.Epsilon)
		}
	}

	// Part 2: episodes 500..999 resume the annealing exactly.
	var finEp int
	part2, err := SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: 1000, From: snap, Save: finalEpisode(&finEp)})
	if err != nil {
		t.Fatal(err)
	}
	if finEp != 1000 {
		t.Fatalf("final checkpoint episode = %d", finEp)
	}
	if part2.Curve[0].Epsilon != 0.9 {
		t.Errorf("resumed first epsilon = %v, want 0.9", part2.Curve[0].Epsilon)
	}
	last := part2.Curve[len(part2.Curve)-1]
	if last.Epsilon != 0 {
		t.Error("resumed search should end at full exploitation")
	}

	// The resumed half exploits the carried Q-knowledge: its own best
	// (the chunk's Best column, which starts afresh at the resume) must
	// match a monolithic 1000-episode search's quality closely.
	mono := SearchPlanned(plan, cfg)
	if last.Best > mono.Time*1.02 {
		t.Errorf("split search %.6g more than 2%% worse than monolithic %.6g", last.Best, mono.Time)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	plan := searchplan.Compile(tab)
	cfg := Config{Episodes: 400, Seed: 3}
	_, snap := stopAt(t, plan, cfg, 200, 1)
	data, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(data, tab)
	if err != nil {
		t.Fatal(err)
	}
	if back.Checkpoint.Episode != snap.Checkpoint.Episode {
		t.Errorf("episode %d != %d", back.Checkpoint.Episode, snap.Checkpoint.Episode)
	}
	// Resuming from the loaded snapshot must equal resuming from the
	// original (same RNG derivation, same state).
	a, err := SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: 400, From: snap})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchCheckpointedPlanned(plan, cfg, DurableOptions{Every: 400, From: back})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("resume from serialized snapshot differs: %.9g vs %.9g", b.Time, a.Time)
	}
}

// TestResumeLeavesSnapshotUnchanged: a resumed search trains on a copy
// of the caller's snapshot, so resuming twice from one in-memory
// snapshot gives identical runs and leaves its bytes untouched.
func TestResumeLeavesSnapshotUnchanged(t *testing.T) {
	plan := searchplan.Compile(goldenChainTable())
	cfg := Config{Episodes: 300, Seed: 7}
	_, snap := stopAt(t, plan, cfg, 100, 1)
	before, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	opts := DurableOptions{Every: 100, From: snap}
	a, err := SearchCheckpointedPlanned(plan, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchCheckpointedPlanned(plan, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("second resume diverges at episode %d: %+v vs %+v", a.Curve[i].Episode, b.Curve[i], a.Curve[i])
		}
	}
	after, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("resuming mutated the caller's snapshot")
	}
}

func TestLoadCheckpointErrors(t *testing.T) {
	if _, err := qlearn.LoadCheckpoint([]byte("{")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := qlearn.LoadCheckpoint([]byte(`{"steps":0,"prims":3}`)); err == nil {
		t.Error("bad dims should fail")
	}
	if _, err := qlearn.LoadCheckpoint([]byte(`{"steps":2,"prims":2,"q":[1]}`)); err == nil {
		t.Error("short Q should fail")
	}
}

func TestSnapshotIsDeep(t *testing.T) {
	q := qlearn.NewTable(2, 2)
	q.Set(0, 0, 1, 5)
	ck := qlearn.Snapshot(q, nil, 7)
	q.Set(0, 0, 1, 9)
	if got := ck.Table.Get(0, 0, 1); got != 5 {
		t.Errorf("snapshot mutated: %v", got)
	}
	if ck.Episode != 7 {
		t.Errorf("episode %d, want 7", ck.Episode)
	}
}
