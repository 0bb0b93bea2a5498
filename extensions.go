package qsdnn

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/profile"
)

// This file exposes the paper's §VII future-work directions, built as
// first-class extensions:
//
//   - multi-objective (latency + energy) search and Pareto sweeps,
//   - a PBQP solver (the Anderson & Gregg comparator),
//   - additional heterogeneous board presets.

// MultiResult is a multi-objective search outcome.
type MultiResult = core.MultiResult

// ParetoPoint is one point of a latency/energy front.
type ParetoPoint = core.ParetoPoint

// Platforms lists the built-in board presets by name.
func Platforms() []string {
	names := make([]string, 0, len(platform.Presets()))
	for n := range platform.Presets() {
		names = append(names, n)
	}
	return names
}

// NewPlatform builds a board preset by name ("tx2-like", "tx1-like",
// "nano-like", "xavier-like", "cpu-only").
func NewPlatform(name string) (*Platform, error) {
	p, ok := platform.Preset(name)
	if !ok {
		return nil, fmt.Errorf("qsdnn: unknown platform %q (available: %v)", name, Platforms())
	}
	return p, nil
}

// ProfileWithEnergy runs the inference phase twice, measuring latency
// (seconds) and energy (joules) with the same protocol, and returns
// one table per objective.
func ProfileWithEnergy(net *Network, pl *Platform, mode Mode, samples int) (timeTab, energyTab *Table, err error) {
	if samples == 0 {
		samples = 50
	}
	if timeTab, err = Profile(net, pl, mode, samples); err != nil {
		return nil, nil, err
	}
	energyTab, err = profile.Run(net, profile.NewSimEnergySource(net, pl), profile.Options{Mode: mode, Samples: samples})
	if err != nil {
		return nil, nil, err
	}
	return timeTab, energyTab, nil
}

// OptimizeMulti searches with the scalarized objective
// latency + lambda*energy. lambda = 0 is the plain latency search;
// larger lambda trades speed for joules.
func OptimizeMulti(timeTab, energyTab *Table, lambda float64, cfg SearchConfig) (*MultiResult, error) {
	return core.SearchMulti(timeTab, energyTab, lambda, cfg)
}

// Pareto sweeps the trade-off weight and returns the non-dominated
// latency/energy points. nil lambdas selects a default sweep.
func Pareto(timeTab, energyTab *Table, lambdas []float64, cfg SearchConfig) ([]ParetoPoint, error) {
	return core.ParetoFront(timeTab, energyTab, lambdas, cfg)
}

// PBQP solves the selection problem with partitioned boolean quadratic
// programming (exact on chains/trees, heuristic on branchy graphs) —
// the prior-art comparator from Anderson & Gregg.
func PBQP(tab *Table) *Result { return core.PBQP(tab) }

// EnergyOf evaluates an assignment's joules against an energy table.
func EnergyOf(energyTab *Table, r *Result) float64 {
	return energyTab.TotalTime(r.Assignment)
}

// Plan is a deployment artifact: the explicit step sequence (compute,
// conversion, transfer, host return) a runtime executes for a searched
// assignment.
type Plan = plan.Plan

// BuildPlan turns a search result into a deployment plan over the
// table it was searched on.
func BuildPlan(net *Network, tab *Table, r *Result) (*Plan, error) {
	p, err := plan.Build(net, tab, r.Assignment)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(tab, r.Assignment); err != nil {
		return nil, err
	}
	return p, nil
}
