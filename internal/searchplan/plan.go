// Package searchplan compiles an immutable lut.Table into a dense,
// cache-friendly evaluation plan for the search phase. The look-up
// table is the profiling phase's product and keeps a sparse,
// registry-indexed layout that is convenient to populate and
// serialize; the search phase evaluates millions of layer costs and
// total times against it, and wants everything hoisted: per-layer
// candidate arrays, an ID→candidate-position map, per-edge penalty
// matrices indexed by candidate position, the incoming-edge adjacency
// of every layer, and the output-penalty vector. Compile performs that
// flattening exactly once per table; every evaluation afterwards is an
// allocation-free walk over flat slices.
//
// The compiled plan is semantically equal to the table it came from:
// LayerCostPos and TotalTimePos perform the same floating-point
// additions in the same order as lut.Table.LayerCost and
// lut.Table.TotalTime, so results are bit-identical, not just close
// (internal/core's golden tests pin this).
//
// Concurrency: a Plan is immutable after Compile and safe for
// concurrent use by any number of searches — the batch runner caches
// one plan per table and shares it across all jobs and seeds.
package searchplan

import (
	"fmt"

	"repro/internal/lut"
	"repro/internal/primitives"
)

// inEdge is one incoming dependency of a layer, pre-resolved so a
// layer-cost evaluation never touches the global edge list.
type inEdge struct {
	// from is the producer layer index.
	from int32
	// pen is the edge's penalty matrix, indexed
	// fromPos*width+toPos over candidate positions.
	pen []float64
}

// Plan is the compiled evaluation form of one lut.Table.
type Plan struct {
	numLayers int
	numPrims  int
	output    int

	// cands[i] holds layer i's candidate primitive IDs in table order;
	// a candidate's index in this slice is its "position".
	cands [][]primitives.ID
	// allowed[i] is cands[i] widened to ints — the action sets handed
	// to the Q-table, shared (read-only) by every episode.
	allowed [][]int
	// pos[i*numPrims+id] is the candidate position of primitive id at
	// layer i, or -1 when id is not a candidate there.
	pos []int32
	// times[i][c] is layer i's latency under its candidate position c.
	times [][]float64

	// edges mirrors the table's dependency list, in table order.
	edges []lut.Edge
	// pen[e][fc*width(e)+tc] is edge e's penalty for producer
	// candidate position fc and consumer candidate position tc, where
	// width(e) = len(cands[edges[e].To]).
	pen [][]float64
	// incoming[i] lists layer i's incoming edges in edge order — the
	// same order lut.Table.LayerCost sums them in.
	incoming [][]inEdge

	// outputPen[c] is the host-return penalty of the output layer's
	// candidate position c.
	outputPen []float64
}

// Compile flattens tab into a Plan. The table must be fully populated
// and immutable (no further Set*/DropCandidate calls); Compile reads
// it through the public read-side API only.
func Compile(tab *lut.Table) *Plan {
	L := tab.NumLayers()
	np := primitives.Count()
	p := &Plan{
		numLayers: L,
		numPrims:  np,
		output:    tab.OutputLayer(),
		cands:     make([][]primitives.ID, L),
		allowed:   make([][]int, L),
		pos:       make([]int32, L*np),
		times:     make([][]float64, L),
		edges:     append([]lut.Edge(nil), tab.Edges()...),
		incoming:  make([][]inEdge, L),
	}
	for i := range p.pos {
		p.pos[i] = -1
	}
	for i := 0; i < L; i++ {
		ids := tab.Candidates(i)
		p.cands[i] = append([]primitives.ID(nil), ids...)
		acts := make([]int, len(ids))
		ts := make([]float64, len(ids))
		for c, id := range ids {
			acts[c] = int(id)
			ts[c] = tab.Time(i, id)
			p.pos[i*np+int(id)] = int32(c)
		}
		p.allowed[i] = acts
		p.times[i] = ts
	}
	p.pen = make([][]float64, len(p.edges))
	for e, ed := range p.edges {
		from, to := p.cands[ed.From], p.cands[ed.To]
		m := make([]float64, len(from)*len(to))
		for fc, fp := range from {
			for tc, tp := range to {
				m[fc*len(to)+tc] = tab.PenaltyByEdge(e, fp, tp)
			}
		}
		p.pen[e] = m
		p.incoming[ed.To] = append(p.incoming[ed.To], inEdge{from: int32(ed.From), pen: m})
	}
	if p.output >= 0 && p.output < L {
		p.outputPen = make([]float64, len(p.cands[p.output]))
		for c, id := range p.cands[p.output] {
			p.outputPen[c] = tab.OutputPenalty(id)
		}
	}
	return p
}

// NumLayers returns the layer count including the input pseudo-layer.
func (p *Plan) NumLayers() int { return p.numLayers }

// OutputLayer returns the index of the layer whose result returns to
// the host.
func (p *Plan) OutputLayer() int { return p.output }

// Edges returns the dependency list in table order. Callers must not
// mutate it.
func (p *Plan) Edges() []lut.Edge { return p.edges }

// Candidates returns layer i's candidate IDs in position order.
// Callers must not mutate the returned slice.
func (p *Plan) Candidates(i int) []primitives.ID { return p.cands[i] }

// NumCandidates returns the size of layer i's candidate set.
func (p *Plan) NumCandidates(i int) int { return len(p.cands[i]) }

// Allowed returns layer i's candidate set as Q-table actions. The
// slice is shared; callers must not mutate it.
func (p *Plan) Allowed(i int) []int { return p.allowed[i] }

// Pos returns the candidate position of primitive id at layer i, or
// -1 when id is not a candidate of the layer.
func (p *Plan) Pos(i int, id primitives.ID) int32 { return p.pos[i*p.numPrims+int(id)] }

// TimePos returns layer i's latency under candidate position c.
func (p *Plan) TimePos(i, c int) float64 { return p.times[i][c] }

// PenaltyPos returns edge e's penalty under producer candidate
// position fc and consumer candidate position tc.
func (p *Plan) PenaltyPos(e, fc, tc int) float64 {
	return p.pen[e][fc*len(p.cands[p.edges[e].To])+tc]
}

// OutputPenaltyPos returns the host-return penalty of the output
// layer's candidate position c.
func (p *Plan) OutputPenaltyPos(c int) float64 { return p.outputPen[c] }

// LayerCostPos returns layer i's latency under candidate position c
// plus every incoming-edge penalty given the already-chosen producer
// positions in apos — bit-identical to lut.Table.LayerCost on the
// equivalent ID-indexed arguments (same additions, same order).
func (p *Plan) LayerCostPos(i, c int, apos []int32) float64 {
	cost := p.times[i][c]
	w := len(p.times[i])
	for _, ie := range p.incoming[i] {
		cost += ie.pen[int(apos[ie.from])*w+c]
	}
	if i == p.output {
		cost += p.outputPen[c]
	}
	return cost
}

// TotalTimePos evaluates a complete assignment expressed as candidate
// positions (apos[0] must be 0, the input pseudo-primitive):
// bit-identical to lut.Table.TotalTime on the equivalent ID-indexed
// assignment.
func (p *Plan) TotalTimePos(apos []int32) float64 {
	if len(apos) != p.numLayers {
		panic(fmt.Sprintf("searchplan: assignment has %d entries, want %d", len(apos), p.numLayers))
	}
	var total float64
	for i := 1; i < p.numLayers; i++ {
		total += p.times[i][apos[i]]
	}
	for e := range p.pen {
		ed := &p.edges[e]
		w := len(p.times[ed.To])
		total += p.pen[e][int(apos[ed.From])*w+int(apos[ed.To])]
	}
	total += p.outputPen[apos[p.output]]
	return total
}

// AssignmentIDs converts a position-indexed assignment to primitive
// IDs, appending into dst (pass dst[:0] to reuse a buffer).
func (p *Plan) AssignmentIDs(apos []int32, dst []primitives.ID) []primitives.ID {
	for i, c := range apos {
		dst = append(dst, p.cands[i][c])
	}
	return dst
}
