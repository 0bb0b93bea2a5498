package qlearn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// randomVocab draws a duplicate-free action subset per step; terminal
// steps (empty vocabularies) stay nil.
func randomVocab(rng *rand.Rand, steps, prims int) [][]int {
	allowed := make([][]int, steps)
	for s := 0; s+1 < steps; s++ {
		perm := rng.Perm(prims)
		w := 1 + rng.Intn(prims)
		allowed[s] = perm[:w]
	}
	return allowed
}

func fillRandom(t *Table, rng *rand.Rand) {
	for i := range t.q {
		t.q[i] = -rng.Float64() * 10
	}
}

// Shaping is a pure layout change: every accessor must read the same
// values before, during and after, and Unshape must restore the exact
// backing array.
func TestShapeUnshapeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const steps, prims = 6, 9
	tab := NewTable(steps, prims)
	fillRandom(tab, rng)
	orig := append([]float64(nil), tab.q...)

	allowed := randomVocab(rng, steps, prims)
	if err := tab.Shape(allowed); err != nil {
		t.Fatalf("Shape: %v", err)
	}
	for s := 0; s < steps; s++ {
		for p := 0; p < prims; p++ {
			for a := 0; a < prims; a++ {
				want := orig[(s*prims+p)*prims+a]
				if got := tab.Get(s, p, a); got != want {
					t.Fatalf("shaped Get(%d,%d,%d) = %v, want %v", s, p, a, got, want)
				}
			}
		}
	}
	// Re-shaping with a different vocabulary preserves values too.
	if err := tab.Shape(randomVocab(rng, steps, prims)); err != nil {
		t.Fatalf("re-Shape: %v", err)
	}
	tab.Unshape()
	for i := range orig {
		if math.Float64bits(tab.q[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("Unshape: q[%d] = %v, want %v", i, tab.q[i], orig[i])
		}
	}
}

func TestShapeRejectsBadVocab(t *testing.T) {
	tab := NewTable(3, 4)
	if err := tab.Shape(make([][]int, 2)); err == nil {
		t.Fatal("Shape accepted wrong step count")
	}
	if err := tab.Shape([][]int{{0, 0}, nil, nil}); err == nil {
		t.Fatal("Shape accepted duplicate action")
	}
	if err := tab.Shape([][]int{{4}, nil, nil}); err == nil {
		t.Fatal("Shape accepted out-of-range action")
	}
	if err := tab.Shape([][]int{{-1}, nil, nil}); err == nil {
		t.Fatal("Shape accepted negative action")
	}
	if tab.perm != nil {
		t.Fatal("failed Shape left the table shaped")
	}
}

// randomEpisode draws a trajectory over the vocabulary structure used
// by the search engine: the prim at step k+1 is the action taken at
// step k, and NextAllowed aliases the shared vocabulary slices.
func randomEpisode(rng *rand.Rand, allowed [][]int, epLen int) []Transition {
	traj := make([]Transition, epLen)
	prev := 0
	for k := 0; k < epLen; k++ {
		acts := allowed[k]
		action := acts[rng.Intn(len(acts))]
		var next []int
		if k+1 < epLen {
			next = allowed[k+1]
		}
		traj[k] = Transition{Step: k, Prim: prev, Action: action,
			Reward: -rng.Float64(), NextAllowed: next}
		prev = action
	}
	return traj
}

// A shaped table must behave bit-identically to an unshaped twin under
// the full agent workload: Best (including tie-break draws), MaxQ,
// Update, UpdateEpisode and compiled replay.
func TestShapedBitIdenticalToUnshaped(t *testing.T) {
	const steps, prims, episodes = 7, 11, 200
	seedRng := rand.New(rand.NewSource(21))
	allowed := randomVocab(seedRng, steps, prims)
	epLen := steps - 1

	plain := NewTable(steps, prims)
	shaped := NewTable(steps, prims)
	if err := shaped.Shape(allowed); err != nil {
		t.Fatalf("Shape: %v", err)
	}
	cfg := PaperConfig()
	rp := NewReplay(16)
	rs := NewReplay(16)
	rngP := rand.New(rand.NewSource(77))
	rngS := rand.New(rand.NewSource(77))
	trajRng := rand.New(rand.NewSource(99))

	for ep := 0; ep < episodes; ep++ {
		traj := randomEpisode(trajRng, allowed, epLen)
		for k := 0; k < epLen; k++ {
			s, p := traj[k].Step, traj[k].Prim
			bp := plain.Best(s, p, allowed[k], rngP)
			bs := shaped.Best(s, p, allowed[k], rngS)
			if bp != bs {
				t.Fatalf("ep %d step %d: Best %d != %d", ep, k, bs, bp)
			}
			mp := plain.MaxQ(s, p, allowed[k])
			ms := shaped.MaxQ(s, p, allowed[k])
			if math.Float64bits(mp) != math.Float64bits(ms) {
				t.Fatalf("ep %d step %d: MaxQ %x != %x", ep, k,
					math.Float64bits(ms), math.Float64bits(mp))
			}
			if w := len(allowed[k]); w > 1 {
				// A sub-vocabulary misses the identity fast path and
				// must translate through the permutation instead.
				sub := allowed[k][:w-1]
				bp := plain.Best(s, p, sub, rngP)
				bs := shaped.Best(s, p, sub, rngS)
				if bp != bs {
					t.Fatalf("ep %d step %d: sub-vocab Best %d != %d", ep, k, bs, bp)
				}
				mp := plain.MaxQ(s, p, sub)
				ms := shaped.MaxQ(s, p, sub)
				if math.Float64bits(mp) != math.Float64bits(ms) {
					t.Fatalf("ep %d step %d: sub-vocab MaxQ differs", ep, k)
				}
			}
		}
		if ep%3 == 0 {
			// Exercise the single-transition path too.
			plain.Update(traj[0], cfg)
			shaped.Update(traj[0], cfg)
		}
		plain.UpdateEpisode(traj, cfg)
		shaped.UpdateEpisode(traj, cfg)
		rp.Add(traj)
		rs.Add(traj)
		rp.ReplayInto(plain, cfg, 8, rngP)
		rs.ReplayInto(shaped, cfg, 8, rngS)
	}

	canon := make([]float64, len(shaped.q))
	shaped.canonicalQ(canon)
	for i := range plain.q {
		if math.Float64bits(plain.q[i]) != math.Float64bits(canon[i]) {
			t.Fatalf("q[%d]: shaped %x != plain %x", i,
				math.Float64bits(canon[i]), math.Float64bits(plain.q[i]))
		}
	}
}

// Checkpoints serialize the canonical layout: a shaped table and its
// unshaped twin must marshal to the same bytes.
func TestShapedCheckpointCanonicalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const steps, prims = 5, 6
	plain := NewTable(steps, prims)
	fillRandom(plain, rng)
	shaped := NewTable(steps, prims)
	copy(shaped.q, plain.q)
	if err := shaped.Shape(randomVocab(rng, steps, prims)); err != nil {
		t.Fatalf("Shape: %v", err)
	}

	bp, err := (&Checkpoint{Table: plain, Episode: 3}).Marshal()
	if err != nil {
		t.Fatalf("Marshal plain: %v", err)
	}
	bs, err := (&Checkpoint{Table: shaped, Episode: 3}).Marshal()
	if err != nil {
		t.Fatalf("Marshal shaped: %v", err)
	}
	if !bytes.Equal(bp, bs) {
		t.Fatal("shaped checkpoint bytes differ from unshaped")
	}

	// Snapshot must capture canonical values as well.
	sp := Snapshot(plain, nil, 3)
	ss := Snapshot(shaped, nil, 3)
	for i := range sp.Table.q {
		if math.Float64bits(sp.Table.q[i]) != math.Float64bits(ss.Table.q[i]) {
			t.Fatalf("snapshot q[%d] differs", i)
		}
	}
}

// The compiled replay must keep producing UpdateEpisode's exact values
// after the ring wraps and slots are overwritten in place, and after
// anything that invalidates the compiled arrays: a layout change of
// the table (Shape, Unshape, re-Shape with another vocabulary) or a
// replay into a different table. Every case is checked bit-for-bit
// against unshaped UpdateEpisode oracles after every pass.
func TestReplayCompiledRingWrapEquivalence(t *testing.T) {
	const steps, prims, capacity, epLen, draws = 6, 8, 4, 5, 6
	seedRng := rand.New(rand.NewSource(31))
	v1 := randomVocab(seedRng, steps, prims)
	v2 := randomVocab(seedRng, steps, prims)
	// A phase first re-lays-out its table (Shape with layout, or
	// Unshape), then adds episodes drawn over vocab, replaying after
	// each into that table.
	type phase struct {
		table    int
		layout   [][]int
		unshape  bool
		vocab    [][]int
		episodes int
	}
	alternate := []phase{
		{table: 0, layout: v1, vocab: v1, episodes: 1},
		{table: 1, layout: v1, vocab: v1, episodes: 1},
	}
	for k := 0; k < 3*capacity; k++ {
		alternate = append(alternate, phase{table: k % 2, vocab: v1, episodes: 1})
	}
	for _, tc := range []struct {
		name   string
		phases []phase
	}{
		{"shaped", []phase{{layout: v1, vocab: v1, episodes: 5 * capacity}}},
		{"unshaped", []phase{{vocab: v1, episodes: 5 * capacity}}},
		{"shape-unshape-reshape", []phase{
			{layout: v1, vocab: v1, episodes: 2 * capacity},
			{unshape: true, vocab: v1, episodes: 2 * capacity},
			{layout: v2, vocab: v2, episodes: 2 * capacity},
		}},
		{"two-tables", alternate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tabs := []*Table{NewTable(steps, prims), NewTable(steps, prims)}
			naive := []*Table{NewTable(steps, prims), NewTable(steps, prims)}
			rc := NewReplay(capacity)
			var naiveBuf [][]Transition
			next := 0
			cfg := PaperConfig()
			rngC := rand.New(rand.NewSource(8))
			rngN := rand.New(rand.NewSource(8))
			trajRng := rand.New(rand.NewSource(44))
			canon := make([]float64, steps*prims*prims)
			pass := 0
			for _, ph := range tc.phases {
				tab := tabs[ph.table]
				switch {
				case ph.layout != nil:
					if err := tab.Shape(ph.layout); err != nil {
						t.Fatalf("Shape: %v", err)
					}
				case ph.unshape:
					tab.Unshape()
				}
				for ep := 0; ep < ph.episodes; ep++ {
					traj := randomEpisode(trajRng, ph.vocab, epLen)
					rc.Add(traj)
					cp := append([]Transition(nil), traj...)
					if len(naiveBuf) < capacity {
						naiveBuf = append(naiveBuf, cp)
					} else {
						naiveBuf[next] = cp
						next = (next + 1) % capacity
					}
					rc.ReplayInto(tab, cfg, draws, rngC)
					for s := 0; s < draws; s++ {
						naive[ph.table].UpdateEpisode(naiveBuf[rngN.Intn(len(naiveBuf))], cfg)
					}
					pass++
					tab.canonicalQ(canon)
					for i, want := range naive[ph.table].q {
						if math.Float64bits(canon[i]) != math.Float64bits(want) {
							t.Fatalf("pass %d, table %d: q[%d] compiled %x != naive %x", pass, ph.table, i,
								math.Float64bits(canon[i]), math.Float64bits(want))
						}
					}
				}
			}
		})
	}
}

// Steady-state replay allocates nothing, into a shaped table (every
// QS-DNN search, multi-objective included) and into an unshaped one
// (no search replays into one today; ReplayInto still supports it).
func TestReplayIntoZeroAllocSteadyState(t *testing.T) {
	const steps, prims, capacity, draws = 7, 9, 8, 16
	allowed := randomVocab(rand.New(rand.NewSource(17)), steps, prims)
	for _, shaped := range []bool{true, false} {
		tab := NewTable(steps, prims)
		if shaped {
			if err := tab.Shape(allowed); err != nil {
				t.Fatalf("Shape: %v", err)
			}
		}
		r := NewReplay(capacity)
		cfg := PaperConfig()
		rng := rand.New(rand.NewSource(23))
		traj := randomEpisode(rand.New(rand.NewSource(5)), allowed, steps-1)
		for ep := 0; ep < 2*capacity; ep++ {
			r.Add(traj)
			r.ReplayInto(tab, cfg, draws, rng)
		}
		for j := range r.buf {
			if !r.cuse[j] {
				t.Fatalf("shaped=%v: slot %d replays through the UpdateEpisode fallback", shaped, j)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			r.Add(traj)
			r.ReplayInto(tab, cfg, draws, rng)
		})
		if allocs != 0 {
			t.Errorf("shaped=%v: steady-state replay allocates %v times per episode", shaped, allocs)
		}
	}
}

// Mixed trajectory lengths force slots off the slab; replay must fall
// back to the generic path for those slots and stay correct.
func TestReplayMixedLengthFallback(t *testing.T) {
	const steps, prims = 6, 8
	seedRng := rand.New(rand.NewSource(61))
	allowed := randomVocab(seedRng, steps, prims)

	tab := NewTable(steps, prims)
	if err := tab.Shape(allowed); err != nil {
		t.Fatalf("Shape: %v", err)
	}
	naive := NewTable(steps, prims)
	const capacity = 8
	r := NewReplay(capacity)
	var naiveBuf [][]Transition
	next := 0
	cfg := PaperConfig()
	rngC := rand.New(rand.NewSource(2))
	rngN := rand.New(rand.NewSource(2))
	trajRng := rand.New(rand.NewSource(3))

	for ep := 0; ep < 3*capacity; ep++ {
		epLen := 5
		if ep%3 == 1 {
			epLen = 3 // off-slab length
		}
		traj := randomEpisode(trajRng, allowed, epLen)
		r.Add(traj)
		cp := append([]Transition(nil), traj...)
		if len(naiveBuf) < capacity {
			naiveBuf = append(naiveBuf, cp)
		} else {
			naiveBuf[next] = cp
			next = (next + 1) % capacity
		}
		r.ReplayInto(tab, cfg, 5, rngC)
		for s := 0; s < 5; s++ {
			naive.UpdateEpisode(naiveBuf[rngN.Intn(len(naiveBuf))], cfg)
		}
	}

	canon := make([]float64, len(tab.q))
	tab.canonicalQ(canon)
	for i := range naive.q {
		if math.Float64bits(naive.q[i]) != math.Float64bits(canon[i]) {
			t.Fatalf("q[%d]: mixed-length replay diverged", i)
		}
	}
}
