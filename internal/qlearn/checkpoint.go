package qlearn

import (
	"encoding/json"
	"fmt"
	"math"
)

// Checkpointing: the paper's search is fast enough to run to
// completion, but a production autotuner interleaves profiling and
// searching across sessions — so the agent's learned state (Q-table +
// replay buffer) is serializable and restorable, resuming exactly
// where it left off.

// checkpointJSON is the on-disk form of an agent state. JSON cannot
// carry IEEE non-finite values, but a search over a partially degraded
// table (unmeasurable pairs priced +Inf) legitimately learns -Inf
// Q-values and rewards — so non-finite entries are stored as 0 in the
// arrays with an exact sidecar restoring them at load. Checkpoints of
// healthy searches carry no sidecar and their bytes are unchanged.
type checkpointJSON struct {
	Steps      int            `json:"steps"`
	Prims      int            `json:"prims"`
	Q          []float64      `json:"q"`
	QNonFinite []nonFinite    `json:"q_nonfinite,omitempty"`
	Episode    int            `json:"episode"`
	Replay     [][]Transition `json:"replay,omitempty"`
	ReplayNF   []replayNF     `json:"replay_nonfinite,omitempty"`
}

// nonFinite records one non-finite slot of the Q array.
type nonFinite struct {
	I int    `json:"i"`
	V string `json:"v"` // "+inf", "-inf" or "nan"
}

// replayNF records one non-finite reward in the replay buffer, by
// (episode, transition) position.
type replayNF struct {
	E int    `json:"e"`
	T int    `json:"t"`
	V string `json:"v"`
}

func encodeNF(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+inf"
	case math.IsInf(v, -1):
		return "-inf"
	default:
		return "nan"
	}
}

func decodeNF(s string) (float64, error) {
	switch s {
	case "+inf":
		return math.Inf(1), nil
	case "-inf":
		return math.Inf(-1), nil
	case "nan":
		return math.NaN(), nil
	}
	return 0, fmt.Errorf("qlearn: unknown non-finite marker %q", s)
}

func finiteOK(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// Checkpoint captures a search's learned state at a given episode.
type Checkpoint struct {
	// Table is the Q-table snapshot.
	Table *Table
	// Replay is the experience buffer snapshot (may be nil).
	Replay *Replay
	// Episode is the number of episodes already run.
	Episode int
}

// Marshal serializes the checkpoint. A shaped table (see Table.Shape)
// is serialized in the canonical action layout, so the bytes are
// independent of any in-memory permutation.
func (c *Checkpoint) Marshal() ([]byte, error) {
	qv := c.Table.q
	if c.Table.perm != nil {
		qv = make([]float64, len(c.Table.q))
		c.Table.canonicalQ(qv)
	}
	var qnf []nonFinite
	for i, v := range qv {
		if !finiteOK(v) {
			qnf = append(qnf, nonFinite{I: i, V: encodeNF(v)})
		}
	}
	if qnf != nil && c.Table.perm == nil {
		// qv aliases the live table; copy before zeroing sidecar slots.
		qv = append([]float64(nil), qv...)
	}
	for _, e := range qnf {
		qv[e.I] = 0
	}
	out := checkpointJSON{
		Steps:      c.Table.steps,
		Prims:      c.Table.prims,
		Q:          qv,
		QNonFinite: qnf,
		Episode:    c.Episode,
	}
	if c.Replay != nil {
		// The marshaled buffer aliases the live one until a non-finite
		// reward forces a copy (outer slice once, each affected
		// trajectory once) — sidecar slots are zeroed only in copies.
		out.Replay = c.Replay.buf
		outerCopied := false
		for ei, traj := range c.Replay.buf {
			trajCopied := false
			for ti, tr := range traj {
				if finiteOK(tr.Reward) {
					continue
				}
				out.ReplayNF = append(out.ReplayNF, replayNF{E: ei, T: ti, V: encodeNF(tr.Reward)})
				if !outerCopied {
					out.Replay = append([][]Transition(nil), c.Replay.buf...)
					outerCopied = true
				}
				if !trajCopied {
					out.Replay[ei] = append([]Transition(nil), traj...)
					trajCopied = true
				}
				out.Replay[ei][ti].Reward = 0
			}
		}
	}
	return json.Marshal(out)
}

// Dimension sanity bounds for deserialized checkpoints: large enough
// for any network the repo can express, small enough that corrupt or
// adversarial dimension fields cannot drive a giant allocation before
// the length check fires.
const (
	maxCheckpointSteps = 1 << 20
	maxCheckpointPrims = 1 << 12
)

// LoadCheckpoint restores a checkpoint. Every field is validated —
// dimensions bounded and overflow-safe, Q length consistent with
// steps×prims², episode non-negative, and every replay transition
// in range for the table — so arbitrary bytes yield an error, never a
// panic or an agent state that would index out of bounds mid-search.
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	var in checkpointJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("qlearn: %w", err)
	}
	if in.Steps <= 0 || in.Prims <= 0 || in.Steps > maxCheckpointSteps || in.Prims > maxCheckpointPrims {
		return nil, fmt.Errorf("qlearn: invalid checkpoint dims %dx%d", in.Steps, in.Prims)
	}
	if want := uint64(in.Steps) * uint64(in.Prims) * uint64(in.Prims); uint64(len(in.Q)) != want {
		return nil, fmt.Errorf("qlearn: checkpoint Q has %d entries, want %d", len(in.Q), want)
	}
	if in.Episode < 0 {
		return nil, fmt.Errorf("qlearn: negative checkpoint episode %d", in.Episode)
	}
	for _, e := range in.QNonFinite {
		if e.I < 0 || e.I >= len(in.Q) {
			return nil, fmt.Errorf("qlearn: q_nonfinite index %d out of range", e.I)
		}
		v, err := decodeNF(e.V)
		if err != nil {
			return nil, err
		}
		in.Q[e.I] = v
	}
	for _, e := range in.ReplayNF {
		if e.E < 0 || e.E >= len(in.Replay) || e.T < 0 || e.T >= len(in.Replay[e.E]) {
			return nil, fmt.Errorf("qlearn: replay_nonfinite position (%d, %d) out of range", e.E, e.T)
		}
		v, err := decodeNF(e.V)
		if err != nil {
			return nil, err
		}
		in.Replay[e.E][e.T].Reward = v
	}
	for ti, traj := range in.Replay {
		for _, tr := range traj {
			if tr.Step < 0 || tr.Step >= in.Steps || tr.Prim < 0 || tr.Prim >= in.Prims ||
				tr.Action < 0 || tr.Action >= in.Prims {
				return nil, fmt.Errorf("qlearn: replay episode %d transition out of range (step %d, prim %d, action %d)",
					ti, tr.Step, tr.Prim, tr.Action)
			}
			if len(tr.NextAllowed) > 0 && tr.Step+1 >= in.Steps {
				return nil, fmt.Errorf("qlearn: replay episode %d has successor actions past the final step", ti)
			}
			for _, a := range tr.NextAllowed {
				if a < 0 || a >= in.Prims {
					return nil, fmt.Errorf("qlearn: replay episode %d successor action %d out of range", ti, a)
				}
			}
		}
	}
	t := NewTable(in.Steps, in.Prims)
	copy(t.q, in.Q)
	r := NewReplay(maxIntQ(len(in.Replay), 1))
	for _, traj := range in.Replay {
		r.Add(traj)
	}
	return &Checkpoint{Table: t, Replay: r, Episode: in.Episode}, nil
}

func maxIntQ(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Snapshot copies the current agent state into a Checkpoint (deep
// copies, so further learning does not mutate the snapshot).
func Snapshot(t *Table, r *Replay, episode int) *Checkpoint {
	ct := NewTable(t.steps, t.prims)
	t.canonicalQ(ct.q)
	var cr *Replay
	if r != nil {
		cr = r.Clone(r.cap)
	}
	return &Checkpoint{Table: ct, Replay: cr, Episode: episode}
}
