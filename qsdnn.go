// Package qsdnn is the public API of the QS-DNN reproduction: an
// automatic, Reinforcement-Learning-based search that finds the
// fastest combination of acceleration-library primitives to run a
// trained CNN on a heterogeneous embedded platform (de Prado, Pazos,
// Benini — "Learning to infer: RL-based search for DNN primitive
// selection on Heterogeneous Embedded Systems", DATE 2019).
//
// The pipeline has two phases, mirroring the paper:
//
//  1. Profile — run the network once per global library implementation
//     on the target (here: a calibrated analytical model of a Jetson
//     TX-2-class board, or the real host-CPU engine), measuring every
//     layer and every possible compatibility layer, producing a
//     look-up table.
//  2. Search — a tabular Q-learning agent walks the network layer by
//     layer selecting primitives, learning to trade locally slower
//     kernels for globally faster paths that avoid layout-conversion
//     and CPU<->GPU transfer penalties.
//
// Quick start:
//
//	net := qsdnn.MustModel("mobilenet-v1")
//	rep, err := qsdnn.Optimize(net, qsdnn.NewTX2Platform(), qsdnn.Options{Mode: qsdnn.ModeGPGPU})
//	fmt.Println(rep.Summary())
package qsdnn

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/searchplan"
)

// Mode selects the processors the search may use.
type Mode = primitives.Mode

// Library identifies an acceleration library.
type Library = primitives.Library

// Network is an immutable layer DAG (build with the model zoo or the
// nn.Builder).
type Network = nn.Network

// Platform is a latency model of a target board.
type Platform = platform.Platform

// Table is a profiled look-up table.
type Table = lut.Table

// Result is a raw search outcome.
type Result = core.Result

// EpisodePoint is one episode of a learning curve.
type EpisodePoint = core.EpisodePoint

// SearchConfig are the QS-DNN agent settings.
type SearchConfig = core.Config

// RobustPolicy configures the fault-tolerant measurement path:
// per-sample timeout, bounded retry with backoff, outlier-robust
// aggregation, and the graceful-degradation thresholds.
type RobustPolicy = profile.Robust

// FaultInjection is a seeded, deterministic fault schedule for a
// profiling source — the test harness for the robustness machinery.
type FaultInjection = profile.FaultConfig

// ProfileReport is the structured outcome of a fault-tolerant
// profiling run: exclusions, retries, timeouts, rejected observations.
type ProfileReport = profile.Report

// Processor modes.
const (
	// ModeCPU restricts the search to CPU primitives.
	ModeCPU = primitives.ModeCPU
	// ModeGPGPU allows CPU and GPU primitives (the paper's
	// heterogeneous setting).
	ModeGPGPU = primitives.ModeGPGPU
)

// NewTX2Platform returns the calibrated Jetson-TX-2-like platform
// model used throughout the reproduction.
func NewTX2Platform() *Platform { return platform.JetsonTX2Like() }

// NewCPUOnlyPlatform returns a board model without a GPU.
func NewCPUOnlyPlatform() *Platform { return platform.CPUOnlyBoard() }

// Models lists the model zoo (the networks of the paper's Table II).
func Models() []string { return models.All() }

// Model builds a zoo network by name.
func Model(name string) (*Network, error) { return models.Build(name) }

// MustModel builds a zoo network or panics on an unknown name.
func MustModel(name string) *Network { return models.MustBuild(name) }

// Options configures Optimize.
type Options struct {
	// Mode selects CPU-only or heterogeneous search. Default ModeCPU.
	Mode Mode
	// Episodes is the search budget (default 1000, as in the paper).
	Episodes int
	// Samples is the profiling average count (default 50).
	Samples int
	// Seed drives profiling noise and the agent (default 1).
	Seed int64
	// Search overrides the full agent configuration; zero fields use
	// the paper's hyper-parameters (α=0.05, γ=0.9, replay 128, 50%/5%
	// ε schedule).
	Search SearchConfig
}

func (o Options) withDefaults() Options {
	if o.Episodes == 0 {
		o.Episodes = 1000
	}
	if o.Samples == 0 {
		o.Samples = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Search.Episodes = o.Episodes
	if o.Search.Seed == 0 {
		o.Search.Seed = o.Seed
	}
	return o
}

// LayerChoice reports the primitive selected for one layer.
type LayerChoice struct {
	// Layer is the layer name.
	Layer string
	// Kind is the layer operation.
	Kind string
	// Primitive is the chosen primitive name.
	Primitive string
	// Library is the chosen primitive's library.
	Library string
	// Processor is where the primitive runs.
	Processor string
	// Seconds is the layer's profiled execution time.
	Seconds float64
}

// Report is the result of a full Optimize run, with the paper's
// comparison quantities precomputed.
type Report struct {
	// Network is the architecture name.
	Network string
	// Mode is the processor mode searched.
	Mode Mode
	// VanillaSeconds is the dependency-free baseline inference time.
	VanillaSeconds float64
	// BSLSeconds is the Best-Single-Library inference time.
	BSLSeconds float64
	// BSLLibrary names the best single library.
	BSLLibrary string
	// Seconds is the QS-DNN result's inference time.
	Seconds float64
	// SpeedupVsVanilla is VanillaSeconds / Seconds.
	SpeedupVsVanilla float64
	// SpeedupVsBSL is BSLSeconds / Seconds.
	SpeedupVsBSL float64
	// Choices is the per-layer selection.
	Choices []LayerChoice
	// Curve is the learning curve (one point per episode).
	Curve []EpisodePoint
	// Table is the profiled LUT (reusable for further searches).
	Table *Table
	// Raw is the underlying search result.
	Raw *Result
}

// DefaultRobustPolicy returns the standard fault-tolerance settings
// (2s sample timeout, 3 retries with exponential backoff, 10% trimmed
// mean with MAD outlier rejection).
func DefaultRobustPolicy() *RobustPolicy { return profile.DefaultRobust() }

// DefaultFaultInjection returns a moderate seeded fault schedule:
// transient errors, occasional stalls, NaN samples and latency spikes.
func DefaultFaultInjection(seed int64) FaultInjection { return profile.DefaultFaults(seed) }

// Profile runs the inference phase on the platform model and returns
// the look-up table.
func Profile(net *Network, pl *Platform, mode Mode, samples int) (*Table, error) {
	if samples == 0 {
		samples = 50
	}
	return profile.Run(net, profile.NewSimSource(net, pl), profile.Options{Mode: mode, Samples: samples})
}

// ProfileContext is Profile under a context and an optional robust
// policy: cancellation aborts the run promptly, and with a non-nil
// policy failed measurements are retried, outliers rejected, and
// persistently failing primitives dropped — the returned ProfileReport
// says what happened.
func ProfileContext(ctx context.Context, net *Network, pl *Platform, mode Mode, samples int, robust *RobustPolicy) (*Table, *ProfileReport, error) {
	if samples == 0 {
		samples = 50
	}
	return profile.RunContext(ctx, net, profile.NewSimSource(net, pl),
		profile.Options{Mode: mode, Samples: samples, Robust: robust})
}

// Optimize runs the full QS-DNN pipeline — profile then search — and
// returns a Report.
func Optimize(net *Network, pl *Platform, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	tab, err := Profile(net, pl, opts.Mode, opts.Samples)
	if err != nil {
		return nil, err
	}
	return OptimizeTable(net, tab, opts)
}

// OptimizeTable searches an existing look-up table (e.g. loaded from
// disk or profiled on the real engine) and returns a Report.
func OptimizeTable(net *Network, tab *Table, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if tab.Network != net.Name {
		return nil, fmt.Errorf("qsdnn: table is for %q, network is %q", tab.Network, net.Name)
	}
	return newReport(net, tab, core.Search(tab, opts.Search)), nil
}

// ReportForResult assembles the standard Report around an externally
// produced search result — the hook for searches run through the
// durable/checkpointed path (core.SearchCheckpointedPlanned), which
// own their search loop but want the same reporting as OptimizeTable.
func ReportForResult(net *Network, tab *Table, res *Result) (*Report, error) {
	if tab.Network != net.Name {
		return nil, fmt.Errorf("qsdnn: table is for %q, network is %q", tab.Network, net.Name)
	}
	if len(res.Assignment) != tab.NumLayers() {
		return nil, fmt.Errorf("qsdnn: result assigns %d layers, table has %d", len(res.Assignment), tab.NumLayers())
	}
	return newReport(net, tab, res), nil
}

// newReport assembles the public Report around a finished search
// result — the shared back end of OptimizeTable and OptimizeBatch.
func newReport(net *Network, tab *Table, res *Result) *Report {
	bslLib, bsl := core.BestSingleLibrary(tab)
	rep := &Report{
		Network:        net.Name,
		Mode:           tab.Mode,
		VanillaSeconds: core.VanillaTime(tab),
		BSLSeconds:     bsl.Time,
		BSLLibrary:     bslLib.String(),
		Seconds:        res.Time,
		Curve:          res.Curve,
		Table:          tab,
		Raw:            res,
	}
	rep.SpeedupVsVanilla = rep.VanillaSeconds / rep.Seconds
	rep.SpeedupVsBSL = rep.BSLSeconds / rep.Seconds
	for i := 1; i < net.Len(); i++ {
		l := net.Layers[i]
		p := primitives.ByID(res.Assignment[i])
		rep.Choices = append(rep.Choices, LayerChoice{
			Layer:     l.Name,
			Kind:      l.Kind.String(),
			Primitive: p.Name,
			Library:   p.Lib.String(),
			Processor: p.Proc.String(),
			Seconds:   tab.Time(i, p.Idx),
		})
	}
	return rep
}

// Summary renders the headline numbers of a report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s mode)\n", r.Network, r.Mode)
	fmt.Fprintf(&b, "  Vanilla baseline : %10.3f ms\n", r.VanillaSeconds*1e3)
	fmt.Fprintf(&b, "  Best single lib  : %10.3f ms (%s)\n", r.BSLSeconds*1e3, r.BSLLibrary)
	fmt.Fprintf(&b, "  QS-DNN           : %10.3f ms\n", r.Seconds*1e3)
	fmt.Fprintf(&b, "  speedup vs Vanilla %.1fx, vs BSL %.2fx\n", r.SpeedupVsVanilla, r.SpeedupVsBSL)
	return b.String()
}

// LibraryMix counts the report's layer choices per library — handy to
// see the learned combinations (e.g. MobileNet's ArmCL depth-wise +
// cuDNN conv + Vanilla ReLU/B-Norm mix).
func (r *Report) LibraryMix() map[string]int {
	mix := map[string]int{}
	for _, c := range r.Choices {
		mix[c.Library]++
	}
	return mix
}

// RandomSearch runs the RS baseline on a profiled table.
func RandomSearch(tab *Table, episodes int, seed int64) *Result {
	return core.RandomSearchPlanned(searchplan.Compile(tab), episodes, seed)
}

// Greedy runs the per-layer-greedy baseline (fastest primitive per
// layer, penalties ignored).
func Greedy(tab *Table) *Result { return core.GreedyPlanned(searchplan.Compile(tab)) }

// Optimal computes the exact optimum for chain networks via dynamic
// programming.
func Optimal(tab *Table) (*Result, error) { return core.OptimalPlanned(searchplan.Compile(tab)) }

// Search runs QS-DNN over an existing table with full control of the
// agent configuration.
func Search(tab *Table, cfg SearchConfig) *Result { return core.Search(tab, cfg) }
