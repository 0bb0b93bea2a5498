// Package core implements the paper's primary contribution: QS-DNN,
// the Q-learning-based search (Algorithm 1) that walks a profiled
// network layer by layer choosing one primitive per layer, learning to
// accept locally slower primitives when that avoids layout-conversion
// or processor-transfer penalties downstream. The package also
// provides the comparators used in the evaluation: Random Search, the
// per-layer Greedy strategy (the "red path" of Fig. 1), exhaustive
// enumeration, the exact Viterbi optimum for chain networks (the
// PBQP-style formulation of Anderson & Gregg restricted to chains),
// and single-library substitution (the Best-Single-Library rows of
// Table II).
package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/lut"
	"repro/internal/primitives"
	"repro/internal/qlearn"
	"repro/internal/searchplan"
)

// Config controls a QS-DNN search run. Zero values are replaced by the
// paper's settings.
type Config struct {
	// Episodes is the episode budget (paper: 1000).
	Episodes int
	// Agent holds α, γ and the replay capacity (paper: 0.05/0.9/128).
	Agent qlearn.Config
	// Schedule is the ε schedule; nil selects PaperSchedule(Episodes).
	Schedule []qlearn.Phase
	// Seed drives all stochastic choices; searches are reproducible.
	Seed int64
	// DisableReplay turns experience replay off (ablation).
	DisableReplay bool
	// DisableShaping replaces the per-layer shaped reward with a
	// single terminal reward equal to the negated total inference
	// time (ablation; the paper reports shaping converges better).
	DisableShaping bool
	// ReplayUpdates is the number of stored episodes re-applied after
	// each episode; 0 selects the replay buffer size.
	ReplayUpdates int
}

// withDefaults fills unset fields with the paper's values.
func (c Config) withDefaults() Config {
	if c.Episodes == 0 {
		c.Episodes = 1000
	}
	if c.Agent == (qlearn.Config{}) {
		c.Agent = qlearn.PaperConfig()
	}
	if c.Schedule == nil {
		c.Schedule = qlearn.PaperSchedule(c.Episodes)
	}
	if c.ReplayUpdates == 0 {
		c.ReplayUpdates = c.Agent.ReplaySize
	}
	return c
}

// EpisodePoint records one episode of a search for learning-curve
// reproduction (Fig. 4).
type EpisodePoint struct {
	// Episode is the zero-based episode index.
	Episode int
	// Epsilon is the exploration rate in force.
	Epsilon float64
	// Time is the inference time of the configuration sampled in this
	// episode (seconds).
	Time float64
	// Best is the best inference time found up to and including this
	// episode.
	Best float64
}

// Result is the outcome of a search.
type Result struct {
	// Assignment maps each layer index to the chosen primitive
	// (index 0 is the input pseudo-primitive).
	Assignment []primitives.ID
	// Time is the total inference time of Assignment (seconds).
	Time float64
	// Episodes is the number of full configurations evaluated.
	Episodes int
	// Curve holds one point per episode (nil for non-episodic
	// searches such as Greedy or the DP optimum).
	Curve []EpisodePoint
}

// newSearchRNG builds the deterministic RNG all searches use.
func newSearchRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Search runs QS-DNN (Algorithm 1) over a profiled look-up table. It
// compiles the table into an evaluation plan first; callers that run
// many searches over one table (the batch runner, the serve daemon)
// compile once and use SearchPlanned directly.
func Search(tab *lut.Table, cfg Config) *Result {
	return SearchPlanned(searchplan.Compile(tab), cfg)
}

// SearchPlanned runs QS-DNN over a pre-compiled plan from a fresh
// agent. The plan is read-only here, so any number of searches may
// share one plan concurrently.
func SearchPlanned(p *searchplan.Plan, cfg Config) *Result {
	cfg = cfg.withDefaults()
	q := qlearn.NewTable(p.NumLayers(), primitives.Count())
	return runEpisodes(p, cfg, q, qlearn.NewReplay(cfg.Agent.ReplaySize), 0, cfg.Episodes)
}

// RandomSearchPlanned evaluates the given number of uniformly random
// configurations — the RS baseline of §VI-B. A uniform draw over
// candidates *is* a uniform draw over candidate positions, so the
// whole loop runs on positions and converts the winner to primitive
// IDs once at the end.
func RandomSearchPlanned(p *searchplan.Plan, episodes int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	L := p.NumLayers()
	apos := make([]int32, L)
	bestApos := make([]int32, L)
	haveBest := false
	best := &Result{Time: math.Inf(1), Episodes: episodes}
	best.Curve = make([]EpisodePoint, 0, episodes)
	for ep := 0; ep < episodes; ep++ {
		for i := 1; i < L; i++ {
			apos[i] = int32(rng.Intn(p.NumCandidates(i)))
		}
		total := p.TotalTimePos(apos)
		if total < best.Time {
			best.Time = total
			copy(bestApos, apos)
			haveBest = true
		}
		best.Curve = append(best.Curve, EpisodePoint{
			Episode: ep, Epsilon: 1, Time: total, Best: best.Time,
		})
	}
	if haveBest {
		best.Assignment = p.AssignmentIDs(bestApos, nil)
	}
	return best
}

// GreedyPlanned picks, for every layer independently, the primitive
// with the lowest isolated execution time, ignoring all compatibility
// penalties — the locally-optimal "red path" of the paper's Fig. 1
// that the RL agent learns to avoid.
func GreedyPlanned(p *searchplan.Plan) *Result {
	L := p.NumLayers()
	apos := make([]int32, L)
	for i := 1; i < L; i++ {
		bestC := 0
		bestT := p.TimePos(i, 0)
		for c := 1; c < p.NumCandidates(i); c++ {
			if t := p.TimePos(i, c); t < bestT {
				bestC, bestT = c, t
			}
		}
		apos[i] = int32(bestC)
	}
	return &Result{Assignment: p.AssignmentIDs(apos, nil), Time: p.TotalTimePos(apos), Episodes: 1}
}

// OptimalPlanned computes the exact minimum-time assignment for chain
// networks with Viterbi dynamic programming over (layer, candidate
// position) states; cost ties break toward the earlier candidate. It
// returns an error for non-chain plans (an edge whose producer is not
// the sequential predecessor), where the chain DP is not exact.
func OptimalPlanned(p *searchplan.Plan) (*Result, error) {
	L := p.NumLayers()
	edgeInto := make([]int, L)
	for i := range edgeInto {
		edgeInto[i] = -1
	}
	for k, e := range p.Edges() {
		if e.From != e.To-1 {
			return nil, fmt.Errorf("core: Optimal requires a chain network, found edge %d->%d", e.From, e.To)
		}
		if edgeInto[e.To] < 0 {
			edgeInto[e.To] = k
		}
	}
	prevCost := []float64{0}
	// back[i][c] is the best predecessor position for layer i at c.
	back := make([][]int32, L)
	for i := 1; i < L; i++ {
		nc := p.NumCandidates(i)
		cur := make([]float64, nc)
		back[i] = make([]int32, nc)
		for c := 0; c < nc; c++ {
			bestCost := math.Inf(1)
			bestPrev := int32(-1)
			for q := range prevCost {
				cost := prevCost[q] + p.TimePos(i, c) + p.PenaltyPos(edgeInto[i], q, c)
				if cost < bestCost {
					bestCost, bestPrev = cost, int32(q)
				}
			}
			if i == p.OutputLayer() {
				bestCost += p.OutputPenaltyPos(c)
			}
			cur[c] = bestCost
			back[i][c] = bestPrev
		}
		prevCost = cur
	}
	bestCost := math.Inf(1)
	bestLast := int32(-1)
	for c, v := range prevCost {
		if v < bestCost {
			bestCost, bestLast = v, int32(c)
		}
	}
	apos := make([]int32, L)
	apos[L-1] = bestLast
	for i := L - 1; i >= 1; i-- {
		apos[i-1] = back[i][apos[i]]
	}
	return &Result{Assignment: p.AssignmentIDs(apos, nil), Time: p.TotalTimePos(apos), Episodes: 1}, nil
}

// ExhaustivePlanned enumerates every configuration and returns the
// true optimum. It refuses design spaces larger than maxConfigs to
// keep runtimes bounded; it exists to certify the other searches on
// small networks. The walk enumerates candidate positions in layer
// order, so ties resolve to the first configuration in that order.
func ExhaustivePlanned(p *searchplan.Plan, maxConfigs float64) (*Result, error) {
	L := p.NumLayers()
	space := 1.0
	for i := 1; i < L; i++ {
		space *= float64(p.NumCandidates(i))
	}
	if space > maxConfigs {
		return nil, fmt.Errorf("core: design space %.3g exceeds cap %.3g", space, maxConfigs)
	}
	apos := make([]int32, L)
	bestApos := make([]int32, L)
	haveBest := false
	best := &Result{Time: math.Inf(1)}
	count := 0
	var walk func(i int)
	walk = func(i int) {
		if i == L {
			count++
			if total := p.TotalTimePos(apos); total < best.Time {
				best.Time = total
				copy(bestApos, apos)
				haveBest = true
			}
			return
		}
		for c := 0; c < p.NumCandidates(i); c++ {
			apos[i] = int32(c)
			walk(i + 1)
		}
	}
	walk(1)
	best.Episodes = count
	if haveBest {
		best.Assignment = p.AssignmentIDs(bestApos, nil)
	}
	return best, nil
}

// SingleLibrary builds the whole-library substitution the profiling
// phase benchmarks: every layer uses lib's primitive where the library
// supports the layer and Vanilla elsewhere. This is how the per-library
// columns and the Best Single Library (BSL) row of Table II are formed.
func SingleLibrary(tab *lut.Table, lib primitives.Library) *Result {
	L := tab.NumLayers()
	assignment := make([]primitives.ID, L)
	assignment[0] = tab.Candidates(0)[0]
	for i := 1; i < L; i++ {
		pick := primitives.ID(-1)
		for _, id := range tab.Candidates(i) {
			if primitives.ByID(id).Lib == lib {
				pick = id
				break
			}
		}
		if pick < 0 {
			pick = primitives.PVanilla.Idx
		}
		assignment[i] = pick
	}
	return &Result{Assignment: assignment, Time: tab.TotalTime(assignment), Episodes: 1}
}

// BestSingleLibrary returns the fastest whole-library substitution and
// which library achieved it, over the libraries available in the
// table's mode.
func BestSingleLibrary(tab *lut.Table) (primitives.Library, *Result) {
	bestLib := primitives.Vanilla
	var best *Result
	for _, lib := range primitives.AllLibraries() {
		r := SingleLibrary(tab, lib)
		if best == nil || r.Time < best.Time {
			best, bestLib = r, lib
		}
	}
	return bestLib, best
}

// VanillaTime returns the all-Vanilla inference time — the
// dependency-free baseline every Table II speedup is measured against.
func VanillaTime(tab *lut.Table) float64 {
	return SingleLibrary(tab, primitives.Vanilla).Time
}
