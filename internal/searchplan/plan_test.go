package searchplan_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/searchplan"
	"repro/internal/tensor"
)

// randomTable populates a built network's table with random finite
// times and penalties.
func randomTable(net *nn.Network, rng *rand.Rand) *lut.Table {
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

func chainTable(rng *rand.Rand, depth int) *lut.Table {
	b := nn.NewBuilder("plan-chain", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Input()
	for i := 0; i < depth; i++ {
		n := string(rune('a' + i))
		switch i % 3 {
		case 0:
			x = b.Conv("c"+n, x, 4, 3, 1, 1)
		case 1:
			x = b.ReLU("r"+n, x)
		default:
			x = b.BatchNorm("b"+n, x)
		}
	}
	return randomTable(b.MustBuild(), rng)
}

func dagTable(rng *rand.Rand) *lut.Table {
	b := nn.NewBuilder("plan-dag", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Input()
	c1 := b.Conv("c1", x, 4, 3, 1, 1)
	r1 := b.ReLU("r1", c1)
	br1 := b.Conv("br1", r1, 4, 3, 1, 1)
	br2 := b.BatchNorm("br2", r1)
	add := b.EltwiseAdd("add", br1, br2)
	cc := b.Concat("cc", add, r1)
	c2 := b.Conv("c2", cc, 4, 1, 1, 0)
	b.ReLU("r2", c2)
	return randomTable(b.MustBuild(), rng)
}

// randomAssignment draws a uniform valid configuration as IDs and the
// equivalent candidate positions.
func randomAssignment(tab *lut.Table, rng *rand.Rand) ([]primitives.ID, []int32) {
	L := tab.NumLayers()
	ids := make([]primitives.ID, L)
	pos := make([]int32, L)
	ids[0] = tab.Candidates(0)[0]
	for i := 1; i < L; i++ {
		c := rng.Intn(len(tab.Candidates(i)))
		ids[i] = tab.Candidates(i)[c]
		pos[i] = int32(c)
	}
	return ids, pos
}

// The compiled plan must reproduce the table's evaluations bit for bit
// — same additions in the same order — on both chain and DAG shapes.
func TestPlanMatchesTableBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tables := map[string]*lut.Table{
		"chain": chainTable(rng, 7),
		"dag":   dagTable(rng),
	}
	for tname, tab := range tables {
		p := searchplan.Compile(tab)
		if p.NumLayers() != tab.NumLayers() || p.OutputLayer() != tab.OutputLayer() {
			t.Fatalf("%s: dims %d/%d, want %d/%d", tname,
				p.NumLayers(), p.OutputLayer(), tab.NumLayers(), tab.OutputLayer())
		}
		for trial := 0; trial < 200; trial++ {
			ids, pos := randomAssignment(tab, rng)
			want := tab.TotalTime(ids)
			got := p.TotalTimePos(pos)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s trial %d: TotalTime %x != %x", tname, trial,
					math.Float64bits(got), math.Float64bits(want))
			}
			for i := 1; i < tab.NumLayers(); i++ {
				wantL := tab.LayerCost(i, ids[i], ids)
				gotL := p.LayerCostPos(i, int(pos[i]), pos)
				if math.Float64bits(wantL) != math.Float64bits(gotL) {
					t.Fatalf("%s trial %d layer %d: LayerCost %x != %x", tname, trial, i,
						math.Float64bits(gotL), math.Float64bits(wantL))
				}
			}
		}
	}
}

// The position maps must be mutually consistent and agree with the
// table's candidate sets.
func TestPlanPositionMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := dagTable(rng)
	p := searchplan.Compile(tab)
	np := primitives.Count()
	for i := 0; i < p.NumLayers(); i++ {
		cands := tab.Candidates(i)
		if got := p.NumCandidates(i); got != len(cands) {
			t.Fatalf("layer %d: NumCandidates %d, want %d", i, got, len(cands))
		}
		if got := p.Candidates(i); len(got) != len(cands) {
			t.Fatalf("layer %d: Candidates len %d, want %d", i, len(got), len(cands))
		}
		inSet := map[primitives.ID]int{}
		for c, id := range cands {
			inSet[id] = c
			if got := p.Candidates(i)[c]; got != id {
				t.Fatalf("layer %d pos %d: Candidates %d, want %d", i, c, got, id)
			}
			if got := p.Pos(i, id); got != int32(c) {
				t.Fatalf("layer %d: Pos(%d) = %d, want %d", i, id, got, c)
			}
			if got := p.Allowed(i)[c]; got != int(id) {
				t.Fatalf("layer %d: Allowed[%d] = %d, want %d", i, c, got, id)
			}
			if wantT, gotT := tab.Time(i, id), p.TimePos(i, c); i > 0 &&
				math.Float64bits(wantT) != math.Float64bits(gotT) {
				t.Fatalf("layer %d pos %d: TimePos %v, want %v", i, c, gotT, wantT)
			}
		}
		for id := 0; id < np; id++ {
			if _, ok := inSet[primitives.ID(id)]; !ok {
				if got := p.Pos(i, primitives.ID(id)); got != -1 {
					t.Fatalf("layer %d: Pos(non-candidate %d) = %d, want -1", i, id, got)
				}
			}
		}
	}
}

// AssignmentIDs must invert the position encoding, reusing dst.
func TestPlanAssignmentIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := chainTable(rng, 5)
	p := searchplan.Compile(tab)
	ids, pos := randomAssignment(tab, rng)
	buf := make([]primitives.ID, 0, len(pos))
	got := p.AssignmentIDs(pos, buf[:0])
	if len(got) != len(ids) {
		t.Fatalf("AssignmentIDs len %d, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("layer %d: AssignmentIDs %d, want %d", i, got[i], ids[i])
		}
	}
}
