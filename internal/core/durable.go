package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/lut"
	"repro/internal/primitives"
	"repro/internal/qlearn"
	"repro/internal/searchplan"
)

// Durable search: the pieces a crash-safe CLI needs — a serializable
// Snapshot that carries the best configuration found so far alongside
// the agent state (the Q-table alone cannot replay a best that was
// discovered before the last checkpoint boundary), and
// SearchCheckpointedPlanned, which runs the search in fixed-cadence
// chunks and hands each boundary snapshot to a persistence sink.
// Because the chunk boundaries are deterministic for a given cadence,
// a run killed at any instant and resumed from its last snapshot
// recomputes exactly the chunks the crash destroyed and converges to
// the same final result as an uninterrupted run of the same cadence.

// Snapshot is the durable state of a checkpointed search: the agent
// checkpoint plus the best assignment observed so far.
type Snapshot struct {
	// Checkpoint is the agent state (Q-table, replay buffer, episode).
	Checkpoint *qlearn.Checkpoint
	// BestAssignment is the best configuration found so far; empty
	// when no episode has completed.
	BestAssignment []primitives.ID
	// BestTime is BestAssignment's total time (undefined when
	// BestAssignment is empty).
	BestTime float64
}

// snapshotJSON is the on-disk form of a Snapshot. BestTime is stored
// only when a best exists, because JSON cannot carry +Inf.
type snapshotJSON struct {
	Checkpoint     json.RawMessage `json:"checkpoint"`
	BestAssignment []int           `json:"best_assignment,omitempty"`
	BestTime       float64         `json:"best_time,omitempty"`
}

// Marshal serializes the snapshot.
func (s *Snapshot) Marshal() ([]byte, error) {
	ck, err := s.Checkpoint.Marshal()
	if err != nil {
		return nil, err
	}
	out := snapshotJSON{Checkpoint: ck}
	if len(s.BestAssignment) > 0 {
		out.BestAssignment = make([]int, len(s.BestAssignment))
		for i, id := range s.BestAssignment {
			out.BestAssignment[i] = int(id)
		}
		out.BestTime = s.BestTime
	}
	return json.Marshal(out)
}

// LoadSnapshot restores a snapshot and validates it against the table
// the search will resume on: the agent dimensions must match, the best
// assignment (when present) must be a legal configuration, and its
// recorded time must equal the table's own evaluation of it — a
// checksum-grade consistency check that ties the snapshot to the exact
// measurements it was computed from. Any violation is an error, so the
// rotation loader treats a schema-invalid snapshot like a torn one and
// falls back to the previous generation.
func LoadSnapshot(data []byte, tab *lut.Table) (*Snapshot, error) {
	var in snapshotJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	ck, err := qlearn.LoadCheckpoint(in.Checkpoint)
	if err != nil {
		return nil, err
	}
	L := tab.NumLayers()
	if ck.Table.Steps() != L {
		return nil, fmt.Errorf("core: snapshot Q-table covers %d steps, table needs %d", ck.Table.Steps(), L)
	}
	s := &Snapshot{Checkpoint: ck, BestTime: math.Inf(1)}
	if len(in.BestAssignment) > 0 {
		if len(in.BestAssignment) != L {
			return nil, fmt.Errorf("core: snapshot best assignment has %d layers, table has %d", len(in.BestAssignment), L)
		}
		ids := make([]primitives.ID, L)
		for i, a := range in.BestAssignment {
			id := primitives.ID(a)
			if int(id) != a || !tab.IsCandidate(i, id) {
				return nil, fmt.Errorf("core: snapshot best assignment layer %d: primitive %d is not a candidate", i, a)
			}
			ids[i] = id
		}
		if got := tab.TotalTime(ids); got != in.BestTime {
			return nil, fmt.Errorf("core: snapshot best time %v does not match table evaluation %v", in.BestTime, got)
		}
		s.BestAssignment = ids
		s.BestTime = in.BestTime
	}
	return s, nil
}

// DurableOptions configures SearchCheckpointedPlanned.
type DurableOptions struct {
	// Every is the snapshot cadence in episodes (<= 0 selects 100).
	Every int
	// Save persists one boundary snapshot; a failure aborts the
	// search (durability is the point — losing snapshots silently
	// would defeat it). nil disables persistence. The snapshot is
	// also the next chunk's training state, so it is valid only until
	// Save returns; marshal before returning. A Save that returns an
	// error ends the search, which leaves that snapshot intact.
	Save func(*Snapshot) error
	// From resumes from a prior snapshot; nil starts fresh. The search
	// trains on a copy, so From is left unchanged.
	From *Snapshot
}

// DefaultSnapshotEvery is the default checkpoint cadence in episodes.
const DefaultSnapshotEvery = 100

// ErrStopEarly is the cooperative early-stop signal for a deadline
// budget: a Save callback that returns an error wrapping it makes
// SearchCheckpointedPlanned stop at that checkpoint boundary and
// return the best-so-far Result alongside the error — the caller gets
// a usable (partial-budget) plan instead of nothing. Any other Save
// error still aborts with a nil result.
var ErrStopEarly = errors.New("core: search stopped early at checkpoint boundary")

// SearchCheckpointedPlanned runs a search of cfg.Episodes total
// episodes over a pre-compiled plan in chunks of opts.Every episodes,
// saving a Snapshot after each chunk. Each chunk runs the shared
// episode loop on a fresh qlearn.Snapshot copy of the previous
// boundary's agent state, with the RNG re-seeded from cfg.Seed plus
// the chunk's first episode. With opts.From it continues from a prior
// snapshot's episode count — the ε schedule (fixed over the total
// budget) anneals as if the run were never interrupted, and the
// carried best-so-far guarantees the final result equals an
// uninterrupted run at the same cadence. The checkpointed protocol
// always learns from the shaped per-layer reward (a snapshot carries
// no record of the ablation), so cfg.DisableShaping is ignored.
//
// The returned Result covers the episodes run in this session (its
// Curve starts at the resumed episode, and each chunk's Best column
// starts afresh); its Time/Assignment reflect the best over the whole
// logical run, snapshot history included.
func SearchCheckpointedPlanned(plan *searchplan.Plan, cfg Config, opts DurableOptions) (*Result, error) {
	cfg = cfg.withDefaults()
	cfg.DisableShaping = false
	total := cfg.Episodes
	every := opts.Every
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	best := &Result{Time: math.Inf(1)}
	var state *qlearn.Checkpoint
	if opts.From == nil {
		state = &qlearn.Checkpoint{
			Table:  qlearn.NewTable(plan.NumLayers(), primitives.Count()),
			Replay: qlearn.NewReplay(cfg.Agent.ReplaySize),
		}
	} else {
		from := opts.From.Checkpoint
		state = qlearn.Snapshot(from.Table, nil, from.Episode)
		// A snapshot stores the episodes, not the capacity: one taken
		// before the buffer filled restores fewer than ReplaySize, and
		// the run keeps the configured capacity.
		state.Replay = from.Replay.Clone(cfg.Agent.ReplaySize)
		if len(opts.From.BestAssignment) > 0 {
			best.Time = opts.From.BestTime
			best.Assignment = append([]primitives.ID(nil), opts.From.BestAssignment...)
		}
	}
	start := state.Episode
	if start >= total {
		return nil, fmt.Errorf("core: snapshot already covers %d episodes (budget %d): nothing to resume", start, total)
	}

	for ep := start; ep < total; {
		chunk := every - ep%every // realign to cadence boundaries after a resume
		if ep+chunk > total {
			chunk = total - ep
		}
		res := runEpisodes(plan, cfg, state.Table, state.Replay, ep, chunk)
		ep += chunk
		state = qlearn.Snapshot(state.Table, state.Replay, ep)
		if res.Time < best.Time {
			best.Time = res.Time
			best.Assignment = append([]primitives.ID(nil), res.Assignment...)
		}
		best.Curve = append(best.Curve, res.Curve...)
		if opts.Save == nil {
			continue
		}
		s := &Snapshot{Checkpoint: state, BestTime: best.Time}
		if best.Assignment != nil {
			s.BestAssignment = append([]primitives.ID(nil), best.Assignment...)
		}
		if err := opts.Save(s); err != nil {
			err = fmt.Errorf("core: saving snapshot at episode %d: %w", ep, err)
			if errors.Is(err, ErrStopEarly) {
				best.Episodes = ep - start
				return best, err
			}
			return nil, err
		}
	}
	best.Episodes = total - start
	return best, nil
}
