package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/searchplan"
	"repro/internal/tensor"
)

// randomChainTable builds a random chain network of depth n with fully
// random (but finite, positive) times and penalties — a synthetic
// problem instance decoupled from the platform model, for
// cross-certifying the solvers.
func randomChainTable(rng *rand.Rand, depth int) *lut.Table {
	b := nn.NewBuilder("rand-chain", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Input()
	for i := 0; i < depth; i++ {
		switch i % 3 {
		case 0:
			x = b.Conv(name("c", i), x, 4, 3, 1, 1)
		case 1:
			x = b.ReLU(name("r", i), x)
		default:
			x = b.BatchNorm(name("b", i), x)
		}
	}
	net := b.MustBuild()
	tab := lut.New(net, primitives.ModeGPGPU)
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			tab.SetTime(i, p, 0.1+rng.Float64())
		}
	}
	for _, ed := range tab.Edges() {
		for _, fp := range tab.Candidates(ed.From) {
			for _, tp := range tab.Candidates(ed.To) {
				pen := 0.0
				if rng.Float64() < 0.5 {
					pen = rng.Float64() * 2
				}
				tab.SetPenalty(ed.From, ed.To, fp, tp, pen)
			}
		}
	}
	for _, p := range tab.Candidates(tab.OutputLayer()) {
		tab.SetOutputPenalty(p, rng.Float64()*0.5)
	}
	return tab
}

func name(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// Property: on random chains, PBQP equals the Viterbi optimum, every
// search result is a valid configuration no better than the optimum,
// and RL at a moderate budget is no worse than random search.
func TestSolverCrossCertificationProperty(t *testing.T) {
	f := func(seed int64, d uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := int(d%6) + 3
		tab := randomChainTable(rng, depth)

		opt, err := OptimalPlanned(searchplan.Compile(tab))
		if err != nil {
			return false
		}
		pb := PBQP(tab)
		if math.Abs(pb.Time-opt.Time) > 1e-9 {
			t.Logf("seed %d depth %d: PBQP %.9g != optimal %.9g", seed, depth, pb.Time, opt.Time)
			return false
		}
		rl := Search(tab, Config{Episodes: 400, Seed: seed})
		rs := RandomSearchPlanned(searchplan.Compile(tab), 400, seed)
		greedy := GreedyPlanned(searchplan.Compile(tab))
		for _, r := range []*Result{rl, rs, greedy} {
			if r.Time < opt.Time-1e-9 {
				t.Logf("seed %d: result %.9g below optimum %.9g", seed, r.Time, opt.Time)
				return false
			}
			if math.Abs(tab.TotalTime(r.Assignment)-r.Time) > 1e-9 {
				t.Logf("seed %d: inconsistent result accounting", seed)
				return false
			}
		}
		return rl.Time <= rs.Time+1e-9
	}
	// Fixed generator: RL-beats-RS holds in expectation, not for every
	// adversarial instance, so the checked instances must be stable.
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// Property: on tiny chains, exhaustive enumeration agrees with the DP
// optimum exactly.
func TestExhaustiveEqualsOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randomChainTable(rng, 3)
		opt, err := OptimalPlanned(searchplan.Compile(tab))
		if err != nil {
			return false
		}
		exh, err := ExhaustivePlanned(searchplan.Compile(tab), 1e7)
		if err != nil {
			return false
		}
		return math.Abs(opt.Time-exh.Time) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: a converged RL search on small random chains finds the
// exact optimum.
func TestRLFindsOptimumOnRandomChains(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomChainTable(rng, 4)
		opt, err := OptimalPlanned(searchplan.Compile(tab))
		if err != nil {
			t.Fatal(err)
		}
		rl := Search(tab, Config{Episodes: 1500, Seed: seed})
		if rl.Time > opt.Time*1.001 {
			t.Errorf("seed %d: RL %.6g vs optimum %.6g", seed, rl.Time, opt.Time)
		}
	}
}
