package lut

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

func chainNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("chain", tensor.Shape{N: 1, C: 3, H: 8, W: 8})
	x := b.Conv("conv", b.Input(), 4, 3, 1, 1)
	x = b.ReLU("relu", x)
	x = b.Flatten("flat", x)
	b.FullyConnected("fc", x, 10)
	return b.MustBuild()
}

func branchNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("branch", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Conv("stem", b.Input(), 8, 3, 1, 1)
	l := b.Conv("left", x, 4, 1, 1, 0)
	r := b.Conv("right", x, 4, 1, 1, 0)
	b.Concat("cat", l, r)
	return b.MustBuild()
}

// fill populates a table with simple deterministic values.
func fill(t *Table) {
	for i := 1; i < t.NumLayers(); i++ {
		for _, p := range t.Candidates(i) {
			t.SetTime(i, p, float64(i)+float64(p)/100)
		}
	}
	for _, ed := range t.Edges() {
		for _, fp := range t.Candidates(ed.From) {
			for _, tp := range t.Candidates(ed.To) {
				pen := 0.0
				if fp != tp {
					pen = 0.5
				}
				t.SetPenalty(ed.From, ed.To, fp, tp, pen)
			}
		}
	}
	for _, p := range t.Candidates(t.OutputLayer()) {
		t.SetOutputPenalty(p, 0.25)
	}
}

// vanillaAssignment returns the all-Vanilla assignment.
func vanillaAssignment(t *Table) []primitives.ID {
	a := make([]primitives.ID, t.NumLayers())
	for i := range a {
		a[i] = primitives.PVanilla.Idx
	}
	return a
}

func TestNewTableStructure(t *testing.T) {
	net := chainNet(t)
	tab := New(net, primitives.ModeGPGPU)
	if tab.NumLayers() != net.Len() {
		t.Errorf("NumLayers = %d", tab.NumLayers())
	}
	if tab.OutputLayer() != net.OutputLayer() {
		t.Errorf("OutputLayer = %d", tab.OutputLayer())
	}
	// One edge per layer in a chain (each consumes its predecessor).
	if len(tab.Edges()) != net.Len()-1 {
		t.Errorf("edges = %d, want %d", len(tab.Edges()), net.Len()-1)
	}
	// Input layer: only the pseudo-primitive, at zero time.
	if c := tab.Candidates(0); len(c) != 1 || c[0] != primitives.PVanilla.Idx {
		t.Errorf("input candidates = %v", c)
	}
	if tab.Time(0, primitives.PVanilla.Idx) != 0 {
		t.Error("input time should be zero")
	}
	// Unmeasured entries are +Inf.
	if !math.IsInf(tab.Time(1, tab.Candidates(1)[0]), 1) {
		t.Error("unmeasured time should be +Inf")
	}
}

func TestBranchEdges(t *testing.T) {
	net := branchNet(t)
	tab := New(net, primitives.ModeCPU)
	// Edges: input->stem, stem->left, stem->right, left->cat, right->cat.
	if len(tab.Edges()) != 5 {
		t.Errorf("edges = %d, want 5", len(tab.Edges()))
	}
	catIdx := net.LayerIndex("cat")
	n := 0
	for _, e := range tab.Edges() {
		if e.To == catIdx {
			n++
		}
	}
	if n != 2 {
		t.Errorf("concat incoming edges = %d, want 2", n)
	}
}

func TestTotalTimeSumsEverything(t *testing.T) {
	net := chainNet(t)
	tab := New(net, primitives.ModeCPU)
	fill(tab)
	a := vanillaAssignment(tab)
	// times: layers 1..4 => 1+2+3+4 (+ prim/100 terms), penalties all
	// same-prim = 0, output 0.25.
	want := 0.0
	for i := 1; i < tab.NumLayers(); i++ {
		want += tab.Time(i, a[i])
	}
	want += 0.25
	if got := tab.TotalTime(a); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalTime = %v, want %v", got, want)
	}
}

func TestTotalTimeIncludesPenalties(t *testing.T) {
	net := chainNet(t)
	tab := New(net, primitives.ModeCPU)
	fill(tab)
	a := vanillaAssignment(tab)
	base := tab.TotalTime(a)
	// Switch one middle layer to a different primitive: two edge
	// penalties (in and out) of 0.5 each appear.
	reluIdx := net.LayerIndex("relu")
	var alt primitives.ID = -1
	for _, c := range tab.Candidates(reluIdx) {
		if c != primitives.PVanilla.Idx {
			alt = c
			break
		}
	}
	if alt < 0 {
		t.Fatal("no alternative relu primitive")
	}
	a[reluIdx] = alt
	got := tab.TotalTime(a)
	dTime := tab.Time(reluIdx, alt) - tab.Time(reluIdx, primitives.PVanilla.Idx)
	if math.Abs(got-(base+dTime+1.0)) > 1e-9 {
		t.Errorf("TotalTime = %v, want base %v + dt %v + 1.0 penalty", got, base, dTime)
	}
}

func TestLayerCostMatchesTotalDecomposition(t *testing.T) {
	net := branchNet(t)
	tab := New(net, primitives.ModeCPU)
	fill(tab)
	a := vanillaAssignment(tab)
	// Summing LayerCost over all layers must equal TotalTime, because
	// every edge penalty is attributed to its consumer and the output
	// penalty to the output layer.
	var sum float64
	for i := 1; i < tab.NumLayers(); i++ {
		sum += tab.LayerCost(i, a[i], a)
	}
	if got := tab.TotalTime(a); math.Abs(got-sum) > 1e-9 {
		t.Errorf("TotalTime %v != sum of LayerCost %v", got, sum)
	}
}

func TestTotalTimeWrongLengthPanics(t *testing.T) {
	tab := New(chainNet(t), primitives.ModeCPU)
	defer func() {
		if recover() == nil {
			t.Error("wrong-length assignment should panic")
		}
	}()
	tab.TotalTime(make([]primitives.ID, 2))
}

func TestPenaltyUnknownEdgePanics(t *testing.T) {
	tab := New(chainNet(t), primitives.ModeCPU)
	defer func() {
		if recover() == nil {
			t.Error("unknown edge should panic")
		}
	}()
	tab.Penalty(0, 3, 0, 0)
}

func TestJSONRoundTrip(t *testing.T) {
	net := branchNet(t)
	tab := New(net, primitives.ModeGPGPU)
	fill(tab)
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := Load(data, net)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if back.Network != tab.Network || back.Mode != tab.Mode {
		t.Error("metadata lost in round trip")
	}
	a := vanillaAssignment(tab)
	if tab.TotalTime(a) != back.TotalTime(a) {
		t.Error("TotalTime differs after round trip")
	}
	// Spot-check a penalty pair.
	ed := tab.Edges()[1]
	fp := tab.Candidates(ed.From)[0]
	tp := tab.Candidates(ed.To)[1]
	if tab.Penalty(ed.From, ed.To, fp, tp) != back.Penalty(ed.From, ed.To, fp, tp) {
		t.Error("penalty differs after round trip")
	}
}

func TestLoadRejectsWrongNetwork(t *testing.T) {
	tab := New(chainNet(t), primitives.ModeCPU)
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(data, branchNet(t)); err == nil {
		t.Error("loading a chain table into a branch network should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("{"), chainNet(t)); err == nil {
		t.Error("garbage JSON should fail")
	}
}
