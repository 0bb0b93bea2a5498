// Package lut implements the look-up table the paper's inference phase
// produces and its search phase consumes: per-(layer, primitive)
// execution times, per-edge compatibility penalties for every
// primitive pair, and the output-return penalty. Once the table is
// built, evaluating a full network configuration is a pure table walk,
// which is what lets the RL search run thousands of episodes in
// seconds on a workstation instead of on the embedded board.
package lut

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/primitives"
)

// Edge is one producer->consumer dependency between layer indices.
type Edge struct {
	From, To int
}

// Table is the measurement database for one (network, mode) pair.
// Entries not explicitly set are +Inf, so an un-profiled choice can
// never look attractive to a search.
//
// Concurrency: a Table is written only while it is being populated
// (New plus the Set* methods); once profiling finishes it is
// effectively immutable and every read-side method (Time, Penalty,
// LayerCost, TotalTime, Candidates, ...) is safe to call from any
// number of goroutines simultaneously. This is what lets the batch
// runner share one profiled table across concurrent searches. Callers
// must not interleave Set* calls with concurrent reads.
type Table struct {
	// Network is the architecture name the table was profiled for.
	Network string
	// Mode is the processor mode the table was profiled under.
	Mode primitives.Mode

	numLayers int
	numPrims  int
	output    int
	// candidates[i] holds the primitive IDs layer i may use.
	candidates [][]primitives.ID
	// times[i*numPrims+p] is the measured latency of layer i with
	// primitive p.
	times []float64
	// edges lists every dependency, input edges included.
	edges []Edge
	// incoming[i] holds the indices into edges whose To is layer i.
	incoming [][]int
	// penalties[e][fp*numPrims+tp] is the compatibility cost of edge
	// e when its endpoints use primitives fp and tp.
	penalties [][]float64
	// outputPen[p] is the host-return cost when the output layer uses
	// primitive p.
	outputPen []float64
}

// New allocates an empty table shaped for the network under the given
// mode. Candidate sets are frozen at construction.
func New(net *nn.Network, mode primitives.Mode) *Table {
	n := net.Len()
	np := primitives.Count()
	t := &Table{
		Network:    net.Name,
		Mode:       mode,
		numLayers:  n,
		numPrims:   np,
		output:     net.OutputLayer(),
		candidates: make([][]primitives.ID, n),
		times:      make([]float64, n*np),
		outputPen:  make([]float64, np),
	}
	for i := range t.times {
		t.times[i] = math.Inf(1)
	}
	for i := range t.outputPen {
		t.outputPen[i] = math.Inf(1)
	}
	for i, l := range net.Layers {
		if i == 0 {
			// The input pseudo-layer is always "implemented" by the
			// host-format pseudo-primitive at zero cost.
			t.candidates[0] = []primitives.ID{primitives.PVanilla.Idx}
			t.times[primitives.PVanilla.Idx] = 0
			continue
		}
		for _, p := range primitives.Candidates(l, mode) {
			t.candidates[i] = append(t.candidates[i], p.Idx)
		}
		for _, from := range l.Inputs {
			t.edges = append(t.edges, Edge{From: from, To: i})
		}
	}
	t.incoming = make([][]int, n)
	for e, ed := range t.edges {
		t.incoming[ed.To] = append(t.incoming[ed.To], e)
	}
	t.penalties = make([][]float64, len(t.edges))
	for e := range t.penalties {
		pen := make([]float64, np*np)
		for i := range pen {
			pen[i] = math.Inf(1)
		}
		t.penalties[e] = pen
	}
	return t
}

// NumLayers returns the layer count including the input layer.
func (t *Table) NumLayers() int { return t.numLayers }

// OutputLayer returns the index of the layer whose result returns to
// the host.
func (t *Table) OutputLayer() int { return t.output }

// Candidates returns the primitive IDs available to layer i.
func (t *Table) Candidates(i int) []primitives.ID { return t.candidates[i] }

// Edges returns every producer->consumer dependency.
func (t *Table) Edges() []Edge { return t.edges }

// ValidSeconds reports whether sec is an admissible table entry: a
// finite, non-negative measurement. This is the same invariant Load
// enforces on deserialized bytes; the Set* methods enforce it at write
// time so a NaN, infinite or negative observation can never enter a
// table silently — sources must reject (or retry) such values before
// storing them.
func ValidSeconds(sec float64) bool {
	return !math.IsNaN(sec) && !math.IsInf(sec, 0) && sec >= 0
}

// checkSet panics when sec violates the table invariant. Writing an
// invalid value is a programming error in the caller (the profiling
// layer validates measurements at the source boundary), so it is loud
// rather than silent.
func checkSet(what string, sec float64) {
	if !ValidSeconds(sec) {
		panic(fmt.Sprintf("lut: %s: invalid time %v (want finite, >= 0)", what, sec))
	}
}

// SetTime records the measured latency of layer i under primitive p.
// It panics if sec is NaN, infinite or negative — the same invariant
// Load enforces.
func (t *Table) SetTime(i int, p primitives.ID, sec float64) {
	checkSet(fmt.Sprintf("SetTime(%d, %d)", i, p), sec)
	t.times[i*t.numPrims+int(p)] = sec
}

// Time returns the recorded latency of layer i under primitive p
// (+Inf if never measured).
func (t *Table) Time(i int, p primitives.ID) float64 {
	return t.times[i*t.numPrims+int(p)]
}

// findEdge locates an edge, reporting whether it exists.
func (t *Table) findEdge(from, to int) (int, bool) {
	for e, ed := range t.edges {
		if ed.From == from && ed.To == to {
			return e, true
		}
	}
	return 0, false
}

// edgeIndex locates an edge or panics — tables are always walked with
// edges obtained from Edges().
func (t *Table) edgeIndex(from, to int) int {
	if e, ok := t.findEdge(from, to); ok {
		return e
	}
	panic(fmt.Sprintf("lut: no edge %d->%d", from, to))
}

// IsCandidate reports whether primitive id is in layer i's candidate
// set.
func (t *Table) IsCandidate(i int, id primitives.ID) bool {
	for _, c := range t.candidates[i] {
		if c == id {
			return true
		}
	}
	return false
}

// SetPenalty records the compatibility cost of edge (from, to) under
// the primitive pair (fp, tp). It panics if sec is NaN, infinite or
// negative — the same invariant Load enforces.
func (t *Table) SetPenalty(from, to int, fp, tp primitives.ID, sec float64) {
	checkSet(fmt.Sprintf("SetPenalty(%d->%d, %d, %d)", from, to, fp, tp), sec)
	t.penalties[t.edgeIndex(from, to)][int(fp)*t.numPrims+int(tp)] = sec
}

// Penalty returns the compatibility cost of edge (from, to) under the
// primitive pair (fp, tp).
func (t *Table) Penalty(from, to int, fp, tp primitives.ID) float64 {
	return t.penalties[t.edgeIndex(from, to)][int(fp)*t.numPrims+int(tp)]
}

// penaltyByEdge avoids the edge lookup when the caller already walks
// Edges() by index.
func (t *Table) penaltyByEdge(e int, fp, tp primitives.ID) float64 {
	return t.penalties[e][int(fp)*t.numPrims+int(tp)]
}

// PenaltyByEdge returns the compatibility cost of edge index e (in
// Edges() order) under the primitive pair (fp, tp). It is the bulk
// accessor the search-plan compiler walks; unlike Penalty it never
// scans the edge list.
func (t *Table) PenaltyByEdge(e int, fp, tp primitives.ID) float64 {
	return t.penaltyByEdge(e, fp, tp)
}

// SetOutputPenalty records the host-return cost for the output layer
// under primitive p. It panics if sec is NaN, infinite or negative —
// the same invariant Load enforces.
func (t *Table) SetOutputPenalty(p primitives.ID, sec float64) {
	checkSet(fmt.Sprintf("SetOutputPenalty(%d)", p), sec)
	t.outputPen[int(p)] = sec
}

// DropCandidate removes primitive p from layer i's candidate set and
// reports whether it was present. This is the graceful-degradation
// hook: when a primitive persistently fails to profile on a layer, the
// profiling layer drops it so the search only ever sees measurable
// choices. The input pseudo-layer's candidate cannot be dropped.
// Like the Set* methods, DropCandidate may only be called while the
// table is being populated, never concurrently with reads.
func (t *Table) DropCandidate(i int, p primitives.ID) bool {
	if i == 0 {
		return false
	}
	for k, c := range t.candidates[i] {
		if c == p {
			t.candidates[i] = append(t.candidates[i][:k], t.candidates[i][k+1:]...)
			return true
		}
	}
	return false
}

// OutputPenalty returns the host-return cost under primitive p.
func (t *Table) OutputPenalty(p primitives.ID) float64 {
	return t.outputPen[int(p)]
}

// LayerCost returns layer i's latency under primitive p plus every
// incoming-edge penalty given the already-chosen producer primitives
// in assignment — the quantity the paper uses as the (negated) shaped
// reward of the step that picks p for layer i.
func (t *Table) LayerCost(i int, p primitives.ID, assignment []primitives.ID) float64 {
	cost := t.Time(i, p)
	for _, e := range t.incoming[i] {
		cost += t.penaltyByEdge(e, assignment[t.edges[e].From], p)
	}
	if i == t.output {
		cost += t.OutputPenalty(p)
	}
	return cost
}

// TotalTime evaluates a complete assignment (one primitive ID per
// layer; index 0 must be the input pseudo-primitive): the sum of all
// layer times, all edge penalties and the output-return penalty.
func (t *Table) TotalTime(assignment []primitives.ID) float64 {
	if len(assignment) != t.numLayers {
		panic(fmt.Sprintf("lut: assignment has %d entries, want %d", len(assignment), t.numLayers))
	}
	var total float64
	for i := 1; i < t.numLayers; i++ {
		total += t.Time(i, assignment[i])
	}
	for e, ed := range t.edges {
		total += t.penaltyByEdge(e, assignment[ed.From], assignment[ed.To])
	}
	total += t.OutputPenalty(assignment[t.output])
	return total
}

// Scalarize folds a latency table and an energy table of the same
// network and mode into one table of cost = t + λ·e, entry by entry:
// every layer time, every penalty pair and every output penalty. It
// is how a multi-objective search runs on the one search path: any
// table-taking solver searches the result unchanged. The structure
// comes from timeTab; a layer's candidates are those both tables
// kept, in timeTab's order. An entry that is +Inf (unset) in either
// table stays +Inf, so 0·Inf never yields a NaN.
func Scalarize(timeTab, energyTab *Table, lambda float64) (*Table, error) {
	if timeTab.numLayers != energyTab.numLayers || timeTab.numPrims != energyTab.numPrims ||
		len(timeTab.edges) != len(energyTab.edges) ||
		timeTab.Network != energyTab.Network || timeTab.Mode != energyTab.Mode {
		return nil, fmt.Errorf("lut: objective tables disagree (%s/%v %d layers vs %s/%v %d layers)",
			timeTab.Network, timeTab.Mode, timeTab.numLayers,
			energyTab.Network, energyTab.Mode, energyTab.numLayers)
	}
	if !ValidSeconds(lambda) {
		return nil, fmt.Errorf("lut: trade-off weight %v must be finite and >= 0", lambda)
	}
	np := timeTab.numPrims
	s := &Table{
		Network:    timeTab.Network,
		Mode:       timeTab.Mode,
		numLayers:  timeTab.numLayers,
		numPrims:   np,
		output:     timeTab.output,
		candidates: make([][]primitives.ID, timeTab.numLayers),
		times:      unset(len(timeTab.times)),
		edges:      timeTab.edges,
		incoming:   timeTab.incoming,
		penalties:  make([][]float64, len(timeTab.penalties)),
		outputPen:  unset(np),
	}
	mix := func(t, e float64) float64 {
		if math.IsInf(t, 1) || math.IsInf(e, 1) {
			return math.Inf(1)
		}
		return t + lambda*e
	}
	for i, cands := range timeTab.candidates {
		for _, id := range cands {
			if energyTab.IsCandidate(i, id) {
				s.candidates[i] = append(s.candidates[i], id)
				k := i*np + int(id)
				s.times[k] = mix(timeTab.times[k], energyTab.times[k])
			}
		}
	}
	for e, ed := range s.edges {
		pen := unset(np * np)
		for _, fp := range s.candidates[ed.From] {
			for _, tp := range s.candidates[ed.To] {
				k := int(fp)*np + int(tp)
				pen[k] = mix(timeTab.penalties[e][k], energyTab.penalties[e][k])
			}
		}
		s.penalties[e] = pen
	}
	for _, id := range s.candidates[s.output] {
		s.outputPen[id] = mix(timeTab.outputPen[id], energyTab.outputPen[id])
	}
	return s, nil
}

// unset returns n unmeasured (+Inf) entries.
func unset(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return v
}

// tableJSON is the serialization form: entries are emitted sparsely
// (finite values only) with primitive names, so tables survive
// registry reordering.
type tableJSON struct {
	Network string              `json:"network"`
	Mode    string              `json:"mode"`
	Layers  int                 `json:"layers"`
	Output  int                 `json:"output"`
	Cands   [][]string          `json:"candidates"`
	Times   []layerTimeJSON     `json:"times"`
	Edges   []edgePenaltiesJSON `json:"edges"`
	OutPen  []primTimeJSON      `json:"output_penalty"`
}

type layerTimeJSON struct {
	Layer int            `json:"layer"`
	Times []primTimeJSON `json:"times"`
}

type primTimeJSON struct {
	Prim string  `json:"prim"`
	Sec  float64 `json:"sec"`
}

type edgePenaltiesJSON struct {
	From  int            `json:"from"`
	To    int            `json:"to"`
	Pairs []pairTimeJSON `json:"pairs"`
}

type pairTimeJSON struct {
	FromPrim string  `json:"from_prim"`
	ToPrim   string  `json:"to_prim"`
	Sec      float64 `json:"sec"`
}

// MarshalJSON serializes the table (sparse, name-keyed).
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{
		Network: t.Network,
		Mode:    t.Mode.String(),
		Layers:  t.numLayers,
		Output:  t.output,
	}
	for i := 0; i < t.numLayers; i++ {
		var names []string
		for _, id := range t.candidates[i] {
			names = append(names, primitives.ByID(id).Name)
		}
		out.Cands = append(out.Cands, names)
		lt := layerTimeJSON{Layer: i}
		for _, id := range t.candidates[i] {
			if v := t.Time(i, id); !math.IsInf(v, 1) {
				lt.Times = append(lt.Times, primTimeJSON{Prim: primitives.ByID(id).Name, Sec: v})
			}
		}
		out.Times = append(out.Times, lt)
	}
	for e, ed := range t.edges {
		ep := edgePenaltiesJSON{From: ed.From, To: ed.To}
		for _, fp := range t.candidates[ed.From] {
			for _, tp := range t.candidates[ed.To] {
				if v := t.penaltyByEdge(e, fp, tp); !math.IsInf(v, 1) {
					ep.Pairs = append(ep.Pairs, pairTimeJSON{
						FromPrim: primitives.ByID(fp).Name,
						ToPrim:   primitives.ByID(tp).Name,
						Sec:      v,
					})
				}
			}
		}
		out.Edges = append(out.Edges, ep)
	}
	for _, id := range t.candidates[t.output] {
		if v := t.OutputPenalty(id); !math.IsInf(v, 1) {
			out.OutPen = append(out.OutPen, primTimeJSON{Prim: primitives.ByID(id).Name, Sec: v})
		}
	}
	return json.Marshal(out)
}

// Load deserializes a table previously produced by MarshalJSON for
// the given network (the network supplies the graph structure). Every
// entry is validated against the network's structure and the global
// registry — layer indices in range, edges that exist, primitives that
// are real candidates of their layer, and finite non-negative times —
// so corrupt or adversarial bytes yield an error, never a panic or a
// table a search would misprice.
func Load(data []byte, net *nn.Network) (*Table, error) {
	var in tableJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("lut: %w", err)
	}
	if in.Network != net.Name {
		return nil, fmt.Errorf("lut: table is for %q, network is %q", in.Network, net.Name)
	}
	var mode primitives.Mode
	switch in.Mode {
	case primitives.ModeCPU.String():
		mode = primitives.ModeCPU
	case primitives.ModeGPGPU.String():
		mode = primitives.ModeGPGPU
	default:
		return nil, fmt.Errorf("lut: unknown mode %q", in.Mode)
	}
	t := New(net, mode)
	if t.numLayers != in.Layers {
		return nil, fmt.Errorf("lut: table has %d layers, network has %d", in.Layers, t.numLayers)
	}
	if t.output != in.Output {
		return nil, fmt.Errorf("lut: table output layer %d, network output %d", in.Output, t.output)
	}
	byName := func(name string) (primitives.ID, error) {
		p, ok := primitives.ByName(name)
		if !ok {
			return 0, fmt.Errorf("lut: unknown primitive %q", name)
		}
		return p.Idx, nil
	}
	checkSec := func(what string, sec float64) error {
		if math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
			return fmt.Errorf("lut: %s has invalid time %v", what, sec)
		}
		return nil
	}
	// Reconcile candidate sets with the serialized ones before loading
	// entries: a table that was degraded (DropCandidate) at profiling
	// time round-trips with the same reduced sets, not the network's
	// full ones. Older tables without a candidates field load against
	// the full sets as before. Every serialized name must still be a
	// real candidate of its layer under this registry; the input
	// pseudo-layer's candidate is immutable.
	if in.Cands != nil {
		if len(in.Cands) != t.numLayers {
			return nil, fmt.Errorf("lut: table has %d candidate sets, network has %d layers", len(in.Cands), t.numLayers)
		}
		for i, names := range in.Cands {
			keep := map[primitives.ID]bool{}
			for _, name := range names {
				id, err := byName(name)
				if err != nil {
					return nil, err
				}
				if !t.IsCandidate(i, id) {
					return nil, fmt.Errorf("lut: %q is not a candidate of layer %d", name, i)
				}
				keep[id] = true
			}
			if i == 0 {
				continue
			}
			for _, id := range append([]primitives.ID(nil), t.candidates[i]...) {
				if !keep[id] {
					t.DropCandidate(i, id)
				}
			}
		}
	}
	for _, lt := range in.Times {
		if lt.Layer < 0 || lt.Layer >= t.numLayers {
			return nil, fmt.Errorf("lut: time entry for out-of-range layer %d", lt.Layer)
		}
		for _, pt := range lt.Times {
			id, err := byName(pt.Prim)
			if err != nil {
				return nil, err
			}
			if !t.IsCandidate(lt.Layer, id) {
				return nil, fmt.Errorf("lut: %q is not a candidate of layer %d", pt.Prim, lt.Layer)
			}
			if err := checkSec(fmt.Sprintf("layer %d/%s", lt.Layer, pt.Prim), pt.Sec); err != nil {
				return nil, err
			}
			t.SetTime(lt.Layer, id, pt.Sec)
		}
	}
	for _, ep := range in.Edges {
		e, ok := t.findEdge(ep.From, ep.To)
		if !ok {
			return nil, fmt.Errorf("lut: penalty entry for nonexistent edge %d->%d", ep.From, ep.To)
		}
		for _, pr := range ep.Pairs {
			fp, err := byName(pr.FromPrim)
			if err != nil {
				return nil, err
			}
			tp, err := byName(pr.ToPrim)
			if err != nil {
				return nil, err
			}
			if !t.IsCandidate(ep.From, fp) || !t.IsCandidate(ep.To, tp) {
				return nil, fmt.Errorf("lut: edge %d->%d pair (%s, %s) is not a candidate pair",
					ep.From, ep.To, pr.FromPrim, pr.ToPrim)
			}
			if err := checkSec(fmt.Sprintf("edge %d->%d", ep.From, ep.To), pr.Sec); err != nil {
				return nil, err
			}
			t.penalties[e][int(fp)*t.numPrims+int(tp)] = pr.Sec
		}
	}
	for _, pt := range in.OutPen {
		id, err := byName(pt.Prim)
		if err != nil {
			return nil, err
		}
		if !t.IsCandidate(t.output, id) {
			return nil, fmt.Errorf("lut: output penalty for non-candidate %q", pt.Prim)
		}
		if err := checkSec(fmt.Sprintf("output penalty %s", pt.Prim), pt.Sec); err != nil {
			return nil, err
		}
		t.SetOutputPenalty(id, pt.Sec)
	}
	return t, nil
}
