package core

import (
	"math"

	"repro/internal/lut"
	"repro/internal/primitives"
	"repro/internal/searchplan"
)

// Multi-objective search — the paper's §VII future work: "we envision
// to extend exploration to e.g. different reward choices or having
// multi-objective search, for problems related to inference of DNNs on
// constrained environments". The implementation scalarizes latency and
// energy with a tunable trade-off weight and reuses the identical
// Q-learning machinery; sweeping the weight traces a latency/energy
// Pareto front.

// MultiResult is the outcome of one multi-objective search.
type MultiResult struct {
	// Assignment is the chosen primitive per layer.
	Assignment []primitives.ID
	// Seconds is the configuration's inference latency.
	Seconds float64
	// Joules is the configuration's inference energy.
	Joules float64
	// Lambda is the trade-off weight used (cost = t + λ·e).
	Lambda float64
}

// SearchMulti runs QS-DNN on the scalarized cost t + λ·e: it folds
// the two tables into one with lut.Scalarize and searches that on the
// one episode path. λ = 0 reduces exactly to Search on the time table;
// large λ approaches the energy-optimal mapping. The result reports
// the chosen assignment's seconds and joules on each table.
func SearchMulti(timeTab, energyTab *lut.Table, lambda float64, cfg Config) (*MultiResult, error) {
	tab, err := lut.Scalarize(timeTab, energyTab, lambda)
	if err != nil {
		return nil, err
	}
	r := SearchPlanned(searchplan.Compile(tab), cfg)
	if r.Assignment == nil {
		return &MultiResult{Seconds: math.Inf(1), Joules: math.Inf(1), Lambda: lambda}, nil
	}
	return &MultiResult{
		Assignment: r.Assignment,
		Seconds:    timeTab.TotalTime(r.Assignment),
		Joules:     energyTab.TotalTime(r.Assignment),
		Lambda:     lambda,
	}, nil
}

// ParetoPoint is one point of the latency/energy front: the search
// result of the weight that produced it.
type ParetoPoint = MultiResult

// ParetoFront sweeps the trade-off weight and returns the
// non-dominated (latency, energy) points found, ordered by ascending
// lambda. Dominated points are filtered out.
func ParetoFront(timeTab, energyTab *lut.Table, lambdas []float64, cfg Config) ([]ParetoPoint, error) {
	if len(lambdas) == 0 {
		lambdas = []float64{0, 0.5, 1, 2, 5, 10, 50}
	}
	points := make([]ParetoPoint, 0, len(lambdas))
	for _, lam := range lambdas {
		r, err := SearchMulti(timeTab, energyTab, lam, cfg)
		if err != nil {
			return nil, err
		}
		points = append(points, *r)
	}
	// Filter dominated points (another point is <= in both objectives
	// and < in one) and collapse duplicates: several lambdas often
	// land on the same configuration.
	front := points[:0]
	seen := map[[2]float64]bool{}
	for i, p := range points {
		key := [2]float64{p.Seconds, p.Joules}
		if seen[key] {
			continue
		}
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Seconds <= p.Seconds && q.Joules <= p.Joules &&
				(q.Seconds < p.Seconds || q.Joules < p.Joules) {
				dominated = true
				break
			}
		}
		if !dominated {
			seen[key] = true
			front = append(front, p)
		}
	}
	return front, nil
}
