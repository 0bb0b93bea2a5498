package tune

import (
	"bytes"
	"context"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// tuneNet is a small net with two conv layers of different shapes —
// enough k and n that the blocking grids survive clampGrid.
func tuneNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("tune-test", tensor.Shape{N: 1, C: 16, H: 19, W: 19})
	x := b.Conv("conv1", b.Input(), 24, 3, 1, 1)
	x = b.ReLU("relu", x)
	x = b.Conv("conv2", x, 16, 3, 1, 1)
	b.Softmax("prob", x)
	return b.MustBuild()
}

// synthMeasurer is a deterministic, learnable cost model: log-time is
// exactly linear in the surrogate features plus a small deterministic
// hash perturbation, so the ridge regressor can rank variants well but
// not perfectly. It never depends on wall time, worker count or call
// order.
type synthMeasurer struct {
	net *nn.Network
	// weights over the feature vector (featureDim entries).
	w []float64
}

func newSynthMeasurer(net *nn.Network) *synthMeasurer {
	return &synthMeasurer{
		net: net,
		// Chosen so blocking and kernel choice matter: deeper blocking
		// (smaller kcFrac) helps up to a point, wide tiles help, panel
		// tiling helps slightly.
		w: []float64{-7, 0.3, 0.3, 0.3, 1.2, -0.5, 0.8, -0.3, 0.2, 0.1, -0.4, 0.15},
	}
}

func (m *synthMeasurer) cost(layer int, base *primitives.Primitive, v Variant) float64 {
	x := features(m.net.Layers[layer], base, v)
	var y float64
	for i := range x {
		y += m.w[i] * x[i]
	}
	h := fnv.New32a()
	h.Write([]byte(v.String()))
	h.Write([]byte(base.Name))
	h.Write([]byte{byte(layer)})
	jitter := float64(h.Sum32()%1000)/1000*0.04 - 0.02 // deterministic ±2%
	return math.Exp(y) * (1 + jitter)
}

func (m *synthMeasurer) MeasureVariant(_ context.Context, layer int, base *primitives.Primitive, v Variant, _ int) (float64, error) {
	return m.cost(layer, base, v), nil
}

func testTable(t *testing.T, net *nn.Network) *lut.Table {
	t.Helper()
	tab := lut.New(net, primitives.ModeCPU)
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			tab.SetTime(i, p, 0.001*float64(i))
		}
	}
	for _, ed := range tab.Edges() {
		for _, fp := range tab.Candidates(ed.From) {
			for _, tp := range tab.Candidates(ed.To) {
				tab.SetPenalty(ed.From, ed.To, fp, tp, 0)
			}
		}
	}
	for _, p := range tab.Candidates(tab.OutputLayer()) {
		tab.SetOutputPenalty(p, 0)
	}
	return tab
}

func runTune(t *testing.T, net *nn.Network, workers int) *Cache {
	t.Helper()
	tab := testTable(t, net)
	opts := DefaultOptions()
	opts.MeasureWorkers = workers
	opts.Samples = 1
	opts.Seed = 7
	c, err := Tune(context.Background(), net, tab, newSynthMeasurer(net), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTuneFindsImprovements(t *testing.T) {
	net := tuneNet(t)
	c := runTune(t, net, 1)
	if c.Stats.PairsTuned == 0 || c.Stats.Generated == 0 {
		t.Fatalf("nothing tuned: %+v", c.Stats)
	}
	if len(c.Entries) == 0 {
		t.Fatal("synthetic cost model has non-default optima; expected entries")
	}
	for _, e := range c.Entries {
		if e.Variant.IsDefault() {
			t.Errorf("entry %d/%s records the default variant", e.Layer, e.Base)
		}
		if !(e.Seconds < e.DefaultSec) {
			t.Errorf("entry %d/%s: tuned %v not faster than default %v", e.Layer, e.Base, e.Seconds, e.DefaultSec)
		}
	}
	if c.Stats.Measured >= c.Stats.Generated {
		t.Errorf("surrogate pruned nothing: measured %d of %d", c.Stats.Measured, c.Stats.Generated)
	}
}

// TestTuneDeterministicAcrossWorkers is the determinism satellite: the
// same seed and budget produce a byte-identical tuned cache — and a
// byte-identical tuned LUT — at any measurement worker count.
func TestTuneDeterministicAcrossWorkers(t *testing.T) {
	net := tuneNet(t)
	ref, err := runTune(t, net, 1).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := runTune(t, net, workers).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, got) {
			t.Errorf("cache bytes differ between 1 and %d measure workers", workers)
		}
	}
	// Applying equal caches to fresh tables yields byte-identical LUTs.
	mkLUT := func(workers int) []byte {
		tab := testTable(t, net)
		c := runTune(t, net, workers)
		c.Apply(tab, net)
		data, err := tab.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	lutRef := mkLUT(1)
	if !bytes.Equal(lutRef, mkLUT(8)) {
		t.Error("tuned LUT bytes differ between 1 and 8 measure workers")
	}
}

// TestSurrogateRegretGate is the regret satellite: against the
// exhaustively-evaluated grid, the shortlist's best is within 5% of
// the true optimum while measuring at least 5x fewer variants.
func TestSurrogateRegretGate(t *testing.T) {
	net := tuneNet(t)
	m := newSynthMeasurer(net)
	tab := testTable(t, net)
	opts := DefaultOptions()
	opts.Samples = 1
	c, err := Tune(context.Background(), net, tab, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Measured*5 > c.Stats.Generated {
		t.Errorf("shortlisting measured %d of %d variants (< 5x reduction)", c.Stats.Measured, c.Stats.Generated)
	}
	for i := 1; i < net.Len(); i++ {
		l := net.Layers[i]
		for _, base := range Bases() {
			vars := Space(l, base)
			if len(vars) == 0 || !tab.IsCandidate(i, base.Idx) {
				continue
			}
			trueBest := math.Inf(1)
			for _, v := range vars {
				if sec := m.cost(i, base, v); sec < trueBest {
					trueBest = sec
				}
			}
			// The tuner's pick: the recorded entry, or the default if
			// no entry beat it.
			got := m.cost(i, base, Variant{})
			for _, e := range c.Entries {
				if e.Layer == i && e.Base == base.Name {
					got = e.Seconds
				}
			}
			if got > trueBest*1.05 {
				t.Errorf("layer %d %s: shortlist best %.3g vs true optimum %.3g (regret %.1f%%)",
					i, base.Name, got, trueBest, (got/trueBest-1)*100)
			}
		}
	}
}

// TestApplyFeedsTable pins the one rule: an entry no slower than its
// base's time at its layer becomes that time and is applied, a slower
// one leaves the base untouched and is skipped, no candidate is added,
// and a second Apply changes nothing.
func TestApplyFeedsTable(t *testing.T) {
	net := tuneNet(t)
	tab := testTable(t, net)
	c := runTune(t, net, 1)
	if len(c.Entries) < 2 {
		t.Fatalf("%d entries: both branches of the rule need two", len(c.Entries))
	}
	// Price every other entry's base above the entry and the rest
	// below it, so both branches run.
	var want []Applied
	for k, e := range c.Entries {
		base, _ := primitives.ByName(e.Base)
		if k%2 == 0 {
			tab.SetTime(e.Layer, base.Idx, e.Seconds*2)
			want = append(want, Applied{Layer: e.Layer, Base: base.Idx, Variant: e.Variant})
		} else {
			tab.SetTime(e.Layer, base.Idx, e.Seconds/2)
		}
	}
	cands := make([][]primitives.ID, tab.NumLayers())
	for i := range cands {
		cands[i] = append([]primitives.ID(nil), tab.Candidates(i)...)
	}
	applied, skipped := c.Apply(tab, net)
	if !reflect.DeepEqual(applied, want) {
		t.Fatalf("applied %+v, want %+v", applied, want)
	}
	if skipped != len(c.Entries)-len(want) {
		t.Errorf("skipped %d, want %d", skipped, len(c.Entries)-len(want))
	}
	for k, e := range c.Entries {
		base, _ := primitives.ByName(e.Base)
		wantSec := e.Seconds
		if k%2 == 1 {
			wantSec = e.Seconds / 2
		}
		if got := tab.Time(e.Layer, base.Idx); got != wantSec {
			t.Errorf("layer %d %s: time %v, want %v", e.Layer, e.Base, got, wantSec)
		}
	}
	for i := range cands {
		if !reflect.DeepEqual(tab.Candidates(i), cands[i]) {
			t.Errorf("layer %d: candidates %v, want %v", i, tab.Candidates(i), cands[i])
		}
	}

	// A second Apply is a no-op on the table and returns the same.
	before, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	applied2, skipped2 := c.Apply(tab, net)
	if !reflect.DeepEqual(applied2, applied) || skipped2 != skipped {
		t.Errorf("second apply: %d applied / %d skipped, want %d / %d", len(applied2), skipped2, len(applied), skipped)
	}
	after, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("second apply changed the table")
	}
}

func TestApplyRejectsMismatchedCache(t *testing.T) {
	net := tuneNet(t)
	tab := testTable(t, net)
	c := runTune(t, net, 1)
	c.Network = "other-net"
	if applied, skipped := c.Apply(tab, net); len(applied) != 0 || skipped != len(c.Entries) {
		t.Error("Apply accepted a cache for a different network")
	}
}

// TestApplySkipsForgedEntries: corrupt entries degrade to skips — no
// panic, no table corruption.
func TestApplySkipsForgedEntries(t *testing.T) {
	net := tuneNet(t)
	tab := testTable(t, net)
	before, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	forged := &Cache{
		Network: net.Name,
		Mode:    primitives.ModeCPU.String(),
		Entries: []Entry{
			{Layer: -1, Base: "openblas-gemm-im2col", Variant: Variant{KC: 8}, Seconds: 1, DefaultSec: 2},
			{Layer: 9999, Base: "openblas-gemm-im2col", Variant: Variant{KC: 8}, Seconds: 1, DefaultSec: 2},
			{Layer: 1, Base: "no-such-primitive", Variant: Variant{KC: 8}, Seconds: 1, DefaultSec: 2},
			{Layer: 1, Base: "vanilla-direct", Variant: Variant{KC: 8}, Seconds: 1, DefaultSec: 2}, // not tunable
			{Layer: 1, Base: "openblas-gemm-im2col", Variant: Variant{KC: -4}, Seconds: 1, DefaultSec: 2},
			{Layer: 1, Base: "openblas-gemm-im2col", Variant: Variant{}, Seconds: 1, DefaultSec: 2}, // default
			{Layer: 1, Base: "openblas-gemm-im2col", Variant: Variant{KC: 8}, Seconds: -1, DefaultSec: 2},
			{Layer: 1, Base: "openblas-gemm-im2col", Variant: Variant{KC: 8}, Seconds: math.Inf(1), DefaultSec: 2},
			{Layer: 2, Base: "openblas-gemm-im2col", Variant: Variant{KC: 8}, Seconds: 1, DefaultSec: 2}, // relu layer
		},
	}
	applied, skipped := forged.Apply(tab, net)
	if len(applied) != 0 {
		t.Errorf("%d forged entries applied", len(applied))
	}
	if skipped != len(forged.Entries) {
		t.Errorf("skipped = %d, want %d", skipped, len(forged.Entries))
	}
	after, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("forged cache modified the table")
	}
}

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	net := tuneNet(t)
	c := runTune(t, net, 1)
	path := t.TempDir() + "/tuned.qsd"
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("cache round trip not byte-identical")
	}
}

func TestSpaceShape(t *testing.T) {
	net := tuneNet(t)
	conv := net.Layers[net.LayerIndex("conv1")]
	relu := net.Layers[net.LayerIndex("relu")]
	for _, base := range Bases() {
		vars := Space(conv, base)
		if len(vars) < 8 {
			t.Errorf("%s: space only %d variants", base.Name, len(vars))
		}
		if len(vars) > 0 && !vars[0].IsDefault() {
			t.Errorf("%s: space[0] is %v, want default", base.Name, vars[0])
		}
		seen := map[Variant]bool{}
		for _, v := range vars {
			if seen[v] {
				t.Errorf("%s: duplicate variant %v", base.Name, v)
			}
			seen[v] = true
			if !v.valid() {
				t.Errorf("%s: generated invalid variant %v", base.Name, v)
			}
		}
		if Space(relu, base) != nil {
			t.Errorf("%s: non-conv layer got a space", base.Name)
		}
	}
}
