package core

// The zero-allocation episode engine: all per-run state of the QS-DNN
// episode loop lives in one struct whose buffers are allocated once
// and reused by every episode — the reusable trajectory slab (Step and
// NextAllowed are fixed per position and pre-filled; only Prim, Action
// and Reward are rewritten), the assignment in both primitive-ID and
// candidate-position form, and the best-so-far copy. After the replay
// buffer's one-time slab allocation, a steady-state episode performs
// zero heap allocations (pinned by TestSearchEpisodeZeroAlloc).
//
// The engine preserves the exact RNG draw order and floating-point
// operation order of the original lut.Table walk, so every search
// result is byte-identical to the pre-plan implementation (pinned by
// the golden tests).

import (
	"math"
	"math/rand"

	"repro/internal/primitives"
	"repro/internal/qlearn"
	"repro/internal/searchplan"
)

// runEpisodes is the one QS-DNN episode loop. It runs the global
// episodes [start, start+n) on the agent state (q, replay), training
// it in place, with the RNG seeded from cfg.Seed+start and ε indexed by
// the global episode count, so a search split into chunks anneals like
// a monolithic one. The result covers only these n episodes: its Best
// column and best-so-far start afresh. cfg must already have its
// defaults applied.
func runEpisodes(p *searchplan.Plan, cfg Config, q *qlearn.Table, replay *qlearn.Replay, start, n int) *Result {
	e := newEpisodeEngine(p, cfg, q, replay, newSearchRNG(cfg.Seed+int64(start)))
	curve := make([]EpisodePoint, 0, n)
	for ep := start; ep < start+n; ep++ {
		eps := qlearn.EpsilonAt(cfg.Schedule, ep)
		total := e.runEpisode(eps)
		curve = append(curve, EpisodePoint{Episode: ep, Epsilon: eps, Time: total, Best: e.bestTime})
	}
	return &Result{Assignment: e.bestCopy(), Time: e.bestTime, Episodes: n, Curve: curve}
}

// episodeEngine runs QS-DNN episodes over a compiled plan.
type episodeEngine struct {
	plan   *searchplan.Plan
	cfg    Config
	rng    *rand.Rand
	q      *qlearn.Table
	replay *qlearn.Replay

	// assignment/apos are the current episode's configuration, as
	// primitive IDs and as candidate positions.
	assignment []primitives.ID
	apos       []int32
	// traj is the reusable trajectory slab.
	traj []qlearn.Transition

	// bestTime/bestAssign track the best configuration so far;
	// haveBest distinguishes "no episode yet" from a real best.
	bestTime   float64
	bestAssign []primitives.ID
	haveBest   bool
}

// newEpisodeEngine allocates every per-run buffer. cfg must already
// have its defaults applied.
func newEpisodeEngine(p *searchplan.Plan, cfg Config, q *qlearn.Table, replay *qlearn.Replay, rng *rand.Rand) *episodeEngine {
	L := p.NumLayers()
	e := &episodeEngine{
		plan: p, cfg: cfg, rng: rng, q: q, replay: replay,
		assignment: make([]primitives.ID, L),
		apos:       make([]int32, L),
		bestAssign: make([]primitives.ID, L),
		bestTime:   math.Inf(1),
	}
	e.assignment[0] = p.Candidates(0)[0]
	if L > 1 {
		e.traj = make([]qlearn.Transition, L-1)
		for k := range e.traj {
			e.traj[k].Step = k
			if k+2 < L {
				e.traj[k].NextAllowed = p.Allowed(k + 2)
			}
		}
	}
	// Shape the Q-table for the plan's per-step action vocabularies so
	// the Bellman scans run over contiguous row prefixes. A table whose
	// dimensions cannot hold the plan's actions (possible only with a
	// foreign checkpoint) stays unshaped; the search then behaves — and
	// fails — exactly like the unshaped implementation.
	if q.Steps() == L {
		vocab := make([][]int, L)
		for s := 0; s+1 < L; s++ {
			vocab[s] = p.Allowed(s + 1)
		}
		//nolint:errcheck // best-effort: unshaped tables stay correct
		_ = q.Shape(vocab)
	}
	return e
}

// bestCopy returns a fresh copy of the best assignment (nil when no
// episode has completed).
func (e *episodeEngine) bestCopy() []primitives.ID {
	if !e.haveBest {
		return nil
	}
	return append([]primitives.ID(nil), e.bestAssign...)
}

// runEpisode walks the network once under exploration rate eps,
// updates the agent (Bellman pass plus experience replay) and returns
// the episode's total inference time. It allocates nothing.
func (e *episodeEngine) runEpisode(eps float64) float64 {
	p := e.plan
	rng := e.rng
	L := p.NumLayers()
	for i := 1; i < L; i++ {
		prev := int(e.assignment[i-1])
		allowed := p.Allowed(i)
		var action int
		var cpos int32
		if rng.Float64() < eps {
			k := rng.Intn(len(allowed))
			action = allowed[k]
			cpos = int32(k)
		} else {
			action = e.q.Best(i-1, prev, allowed, rng)
			cpos = p.Pos(i, primitives.ID(action))
		}
		e.assignment[i] = primitives.ID(action)
		e.apos[i] = cpos

		var reward float64
		if !e.cfg.DisableShaping {
			reward = -p.LayerCostPos(i, int(cpos), e.apos)
		}
		tr := &e.traj[i-1]
		tr.Prim = prev
		tr.Action = action
		tr.Reward = reward
	}
	total := p.TotalTimePos(e.apos)
	if e.cfg.DisableShaping {
		// Single terminal reward carrying the whole signal.
		e.traj[len(e.traj)-1].Reward = -total
	}

	e.q.UpdateEpisode(e.traj, e.cfg.Agent)
	if !e.cfg.DisableReplay {
		e.replay.Add(e.traj)
		e.replay.ReplayInto(e.q, e.cfg.Agent, e.cfg.ReplayUpdates, rng)
	}

	if total < e.bestTime {
		e.bestTime = total
		copy(e.bestAssign, e.assignment)
		e.haveBest = true
	}
	return total
}
