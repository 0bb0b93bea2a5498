package lut

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/primitives"
)

// energyFill populates a table with values distinct from fill's, so a
// scalarized entry shows which side each term came from.
func energyFill(t *Table) {
	for i := 1; i < t.NumLayers(); i++ {
		for _, p := range t.Candidates(i) {
			t.SetTime(i, p, 10*float64(i)+float64(p))
		}
	}
	for _, ed := range t.Edges() {
		for _, fp := range t.Candidates(ed.From) {
			for _, tp := range t.Candidates(ed.To) {
				t.SetPenalty(ed.From, ed.To, fp, tp, float64(fp)+2*float64(tp))
			}
		}
	}
	for _, p := range t.Candidates(t.OutputLayer()) {
		t.SetOutputPenalty(p, 3+float64(p))
	}
}

func TestScalarizeEntries(t *testing.T) {
	net := branchNet(t)
	tt, et := New(net, primitives.ModeGPGPU), New(net, primitives.ModeGPGPU)
	fill(tt)
	energyFill(et)
	const lambda = 0.75
	s, err := Scalarize(tt, et, lambda)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumLayers(); i++ {
		if !reflect.DeepEqual(s.Candidates(i), tt.Candidates(i)) {
			t.Fatalf("layer %d: candidates %v, want %v", i, s.Candidates(i), tt.Candidates(i))
		}
		for _, p := range s.Candidates(i) {
			if got, want := s.Time(i, p), tt.Time(i, p)+lambda*et.Time(i, p); got != want {
				t.Errorf("time(%d, %d) = %v, want %v", i, p, got, want)
			}
		}
	}
	for _, ed := range s.Edges() {
		for _, fp := range s.Candidates(ed.From) {
			for _, tp := range s.Candidates(ed.To) {
				got := s.Penalty(ed.From, ed.To, fp, tp)
				want := tt.Penalty(ed.From, ed.To, fp, tp) + lambda*et.Penalty(ed.From, ed.To, fp, tp)
				if got != want {
					t.Errorf("penalty %d->%d (%d, %d) = %v, want %v", ed.From, ed.To, fp, tp, got, want)
				}
			}
		}
	}
	for _, p := range s.Candidates(s.OutputLayer()) {
		if got, want := s.OutputPenalty(p), tt.OutputPenalty(p)+lambda*et.OutputPenalty(p); got != want {
			t.Errorf("output penalty %d = %v, want %v", p, got, want)
		}
	}
	// λ = 0 is the time table, entry for entry.
	z, err := Scalarize(tt, et, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := vanillaAssignment(tt)
	if z.TotalTime(a) != tt.TotalTime(a) {
		t.Errorf("lambda 0 total %v, time table %v", z.TotalTime(a), tt.TotalTime(a))
	}
}

// An entry unset (+Inf) in either table stays unset: 0·Inf must not
// turn an unmeasured entry into a NaN or a zero-cost one.
func TestScalarizeKeepsUnsetEntries(t *testing.T) {
	net := chainNet(t)
	tt, et := New(net, primitives.ModeGPGPU), New(net, primitives.ModeGPGPU)
	// Leave layer 1's second candidate unset in the time table and
	// layer 2's first candidate unset in the energy table; leave every
	// penalty of the first edge unset in the energy table.
	fill(tt)
	energyFill(et)
	unsetT := tt.Candidates(1)[1]
	tt.times[1*tt.numPrims+int(unsetT)] = math.Inf(1)
	unsetE := et.Candidates(2)[0]
	et.times[2*et.numPrims+int(unsetE)] = math.Inf(1)
	for k := range et.penalties[0] {
		et.penalties[0][k] = math.Inf(1)
	}
	for _, lambda := range []float64{0, 1} {
		s, err := Scalarize(tt, et, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if v := s.Time(1, unsetT); !math.IsInf(v, 1) {
			t.Errorf("lambda %g: time-unset entry = %v, want +Inf", lambda, v)
		}
		if v := s.Time(2, unsetE); !math.IsInf(v, 1) {
			t.Errorf("lambda %g: energy-unset entry = %v, want +Inf", lambda, v)
		}
		for _, v := range s.times {
			if math.IsNaN(v) {
				t.Fatalf("lambda %g: NaN time entry", lambda)
			}
		}
		for e, pen := range s.penalties {
			for _, v := range pen {
				if math.IsNaN(v) || (e == 0 && !math.IsInf(v, 1)) {
					t.Fatalf("lambda %g: edge %d penalty %v", lambda, e, v)
				}
			}
		}
		for _, v := range s.outputPen {
			if math.IsNaN(v) {
				t.Fatalf("lambda %g: NaN output penalty", lambda)
			}
		}
	}
}

// A candidate dropped by either profiling pass is not a candidate of
// the scalarized table; the survivors keep the time table's order.
func TestScalarizeIntersectsCandidates(t *testing.T) {
	net := chainNet(t)
	tt, et := New(net, primitives.ModeGPGPU), New(net, primitives.ModeGPGPU)
	fill(tt)
	energyFill(et)
	c1, c2 := tt.Candidates(1)[0], et.Candidates(1)[1]
	tt.DropCandidate(1, c1)
	et.DropCandidate(1, c2)
	s, err := Scalarize(tt, et, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want []primitives.ID
	for _, id := range tt.Candidates(1) {
		if et.IsCandidate(1, id) {
			want = append(want, id)
		}
	}
	if got := s.Candidates(1); !reflect.DeepEqual(got, want) || s.IsCandidate(1, c1) || s.IsCandidate(1, c2) {
		t.Errorf("layer 1 candidates %v, want %v (without %d and %d)", got, want, c1, c2)
	}
	for i := 2; i < s.NumLayers(); i++ {
		if !reflect.DeepEqual(s.Candidates(i), tt.Candidates(i)) {
			t.Errorf("layer %d candidates changed: %v", i, s.Candidates(i))
		}
	}
}

func TestScalarizeRejectsMismatch(t *testing.T) {
	chain, branch := chainNet(t), branchNet(t)
	tt := New(chain, primitives.ModeGPGPU)
	for name, et := range map[string]*Table{
		"network": New(branch, primitives.ModeGPGPU),
		"mode":    New(chain, primitives.ModeCPU),
	} {
		if _, err := Scalarize(tt, et, 1); err == nil {
			t.Errorf("mismatched %s accepted", name)
		}
	}
	et := New(chain, primitives.ModeGPGPU)
	for _, lambda := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Scalarize(tt, et, lambda); err == nil {
			t.Errorf("lambda %v accepted", lambda)
		}
	}
}
