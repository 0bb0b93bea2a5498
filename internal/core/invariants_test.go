package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/lut"
	"repro/internal/primitives"
	"repro/internal/searchplan"
)

// Invariant harness for the search algorithms: on randomized chain
// tables, no search may ever beat the exact DP optimum, and every
// Result must price its own assignment exactly as the table does.

// checkResultInvariants asserts the two universal properties of a
// search outcome against its table and the known optimum.
func checkResultInvariants(t *testing.T, label string, tab *lut.Table, r *Result, optimum float64) {
	t.Helper()
	if r.Time < optimum-1e-9 {
		t.Errorf("%s: time %.9g beats the DP optimum %.9g — impossible", label, r.Time, optimum)
	}
	if got := tab.TotalTime(r.Assignment); math.Abs(got-r.Time) > 1e-9 {
		t.Errorf("%s: Result.Time %.9g != recomputed TotalTime %.9g", label, r.Time, got)
	}
	if len(r.Assignment) != tab.NumLayers() {
		t.Errorf("%s: assignment has %d entries, table has %d layers", label, len(r.Assignment), tab.NumLayers())
	}
	for i := 1; i < tab.NumLayers(); i++ {
		if !containsID(tab.Candidates(i), r.Assignment[i]) {
			t.Errorf("%s: layer %d assigned non-candidate %d", label, i, r.Assignment[i])
		}
	}
}

func containsID(ids []primitives.ID, id primitives.ID) bool {
	for _, c := range ids {
		if c == id {
			return true
		}
	}
	return false
}

// TestSearchesNeverBeatOptimalProperty: for randomized chain tables of
// varying depth, Search (in every ablation variant), RandomSearch and
// Greedy all stay at or above OptimalPlanned's DP optimum, and each
// Result.Time equals lut.Table.TotalTime(assignment) recomputed from
// scratch.
func TestSearchesNeverBeatOptimalProperty(t *testing.T) {
	prop := func(seed int64, d uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := int(d%8) + 2
		tab := randomChainTable(rng, depth)
		opt, err := OptimalPlanned(searchplan.Compile(tab))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// The optimum itself must satisfy its own accounting.
		checkResultInvariants(t, "optimal", tab, opt, opt.Time)

		variants := map[string]Config{
			"paper":      {Episodes: 150, Seed: seed},
			"no-replay":  {Episodes: 150, Seed: seed, DisableReplay: true},
			"no-shaping": {Episodes: 150, Seed: seed, DisableShaping: true},
		}
		for label, cfg := range variants {
			checkResultInvariants(t, label, tab, Search(tab, cfg), opt.Time)
		}
		checkResultInvariants(t, "random-search", tab, RandomSearchPlanned(searchplan.Compile(tab), 150, seed), opt.Time)
		checkResultInvariants(t, "greedy", tab, GreedyPlanned(searchplan.Compile(tab)), opt.Time)
		return !t.Failed()
	}
	n := 20
	if testing.Short() {
		n = 6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentSearchSharedTable: SearchPlanned is a pure function of
// (plan, config); 8 goroutines searching one shared compiled plan with
// the same config, as the batch runner does, must all return the
// result the sequential call returns. Run under -race this also proves
// the plan read path is race-free.
func TestConcurrentSearchSharedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	plan := searchplan.Compile(randomChainTable(rng, 6))
	cfg := Config{Episodes: 200, Seed: 4}
	want := SearchPlanned(plan, cfg)

	const goroutines = 8
	results := make([]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = SearchPlanned(plan, cfg)
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if r.Time != want.Time {
			t.Errorf("goroutine %d: time %v, sequential %v", g, r.Time, want.Time)
		}
		for i := range want.Assignment {
			if r.Assignment[i] != want.Assignment[i] {
				t.Errorf("goroutine %d: assignment differs at layer %d", g, i)
				break
			}
		}
	}
}
