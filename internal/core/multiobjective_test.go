package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/searchplan"
)

// energyTables profiles a network's latency and energy tables on the
// tx2-like board under the strict protocol.
func energyTables(t *testing.T, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *lut.Table) {
	t.Helper()
	pl := platform.JetsonTX2Like()
	opts := profile.Options{Mode: mode, Samples: samples}
	tt, err := profile.Run(net, profile.NewSimSource(net, pl), opts)
	if err != nil {
		t.Fatal(err)
	}
	et, err := profile.Run(net, profile.NewSimEnergySource(net, pl), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tt, et
}

// At λ = 0 the scalarized table is the time table entry for entry, so
// the front's first point is the plain latency search, bit for bit.
func TestSearchMultiLambdaZeroMatchesLatencySearch(t *testing.T) {
	for _, name := range []string{"lenet5", "squeezenet"} {
		net := models.MustBuild(name)
		tt, et := energyTables(t, net, primitives.ModeGPGPU, 3)
		cfg := Config{Episodes: 600, Seed: 3}
		mono := SearchPlanned(searchplan.Compile(tt), cfg)
		front, err := ParetoFront(tt, et, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := front[0]
		if first.Lambda != 0 || !reflect.DeepEqual(first.Assignment, mono.Assignment) ||
			math.Float64bits(first.Seconds) != math.Float64bits(mono.Time) {
			t.Errorf("%s: lambda=0 point %v s %v differs from plain search %v s %v",
				name, first.Seconds, first.Assignment, mono.Time, mono.Assignment)
		}
		if first.Joules != et.TotalTime(mono.Assignment) || first.Joules <= 0 {
			t.Errorf("%s: lambda=0 energy = %v", name, first.Joules)
		}
	}
}

func TestSearchMultiTradesLatencyForEnergy(t *testing.T) {
	// A GPU-heavy network: high lambda should push work off the
	// power-hungry GPU, lowering joules at a latency cost.
	net := models.MustBuild("squeezenet")
	tt, et := energyTables(t, net, primitives.ModeGPGPU, 3)
	fast, err := SearchMulti(tt, et, 0, Config{Episodes: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	frugal, err := SearchMulti(tt, et, 1000, Config{Episodes: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if frugal.Joules > fast.Joules {
		t.Errorf("high-lambda search should not burn more energy: %v > %v J",
			frugal.Joules, fast.Joules)
	}
	if frugal.Seconds < fast.Seconds {
		t.Errorf("energy-optimal mapping should not also be faster: %v < %v s",
			frugal.Seconds, fast.Seconds)
	}
	// The trade-off must be real on this platform: distinct corners.
	if frugal.Joules == fast.Joules && frugal.Seconds == fast.Seconds {
		t.Error("latency- and energy-optimal mappings coincide; the objective is degenerate")
	}
}

func TestSearchMultiValidation(t *testing.T) {
	net := smallChain(t)
	tt, et := energyTables(t, net, primitives.ModeGPGPU, 3)
	if _, err := SearchMulti(tt, et, -1, Config{Episodes: 10}); err == nil {
		t.Error("negative lambda should error")
	}
	other := profiled(t, models.MustBuild("lenet5"), primitives.ModeGPGPU)
	if _, err := SearchMulti(tt, other, 1, Config{Episodes: 10}); err == nil {
		t.Error("mismatched tables should error")
	}
}

func TestParetoFront(t *testing.T) {
	net := models.MustBuild("squeezenet")
	tt, et := energyTables(t, net, primitives.ModeGPGPU, 3)
	front, err := ParetoFront(tt, et, []float64{0, 1, 10, 1000}, Config{Episodes: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	// No point on the front dominates another.
	for i, p := range front {
		for j, q := range front {
			if i == j {
				continue
			}
			if q.Seconds <= p.Seconds && q.Joules <= p.Joules &&
				(q.Seconds < p.Seconds || q.Joules < p.Joules) {
				t.Errorf("front point %+v dominated by %+v", p, q)
			}
		}
	}
}

func TestParetoFrontDefaultLambdas(t *testing.T) {
	net := smallChain(t)
	tt, et := energyTables(t, net, primitives.ModeCPU, 3)
	front, err := ParetoFront(tt, et, nil, Config{Episodes: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Error("default lambdas produced no front")
	}
}

// The energy of an assignment is its total on the energy table.
func TestEnergyOf(t *testing.T) {
	net := smallChain(t)
	tt, et := energyTables(t, net, primitives.ModeGPGPU, 3)
	res := Search(tt, Config{Episodes: 300, Seed: 1})
	if e := et.TotalTime(res.Assignment); e <= 0 || math.IsInf(e, 0) {
		t.Errorf("energy of the latency-optimal mapping = %v", e)
	}
	van := SingleLibrary(tt, primitives.Vanilla)
	if ev := et.TotalTime(van.Assignment); ev <= 0 || math.IsInf(ev, 0) {
		t.Errorf("vanilla energy = %v", ev)
	}
}

func TestEnergyTablesStructure(t *testing.T) {
	net := smallChain(t)
	_, et := energyTables(t, net, primitives.ModeGPGPU, 3)
	for i := 1; i < et.NumLayers(); i++ {
		for _, p := range et.Candidates(i) {
			if v := et.Time(i, p); v <= 0 || math.IsInf(v, 0) {
				t.Errorf("layer %d prim %d: energy %v", i, p, v)
			}
		}
	}
	// GPU primitives must cost more joules per second than CPU ones:
	// check a conv layer where both exist.
	convIdx := net.LayerIndex("conv1")
	_ = convIdx
}

func TestGPUEnergyRatioExceedsCPU(t *testing.T) {
	// For the same layer, joules/second on GPU ~ GPUWatts and on CPU
	// ~ CPUWatts.
	pl := platform.JetsonTX2Like()
	net := smallChain(t)
	conv := net.Layers[net.LayerIndex("conv1")]
	cpuP, _ := primitives.ByName("openblas-gemm-im2col")
	gpuP, _ := primitives.ByName("cudnn-conv")
	cpuRatio := pl.LayerEnergy(conv, cpuP) / pl.LayerLatency(conv, cpuP)
	gpuRatio := pl.LayerEnergy(conv, gpuP) / pl.LayerLatency(conv, gpuP)
	if math.Abs(cpuRatio-pl.Power().CPUWatts) > 1e-9 {
		t.Errorf("CPU joules/sec = %v, want %v", cpuRatio, pl.Power().CPUWatts)
	}
	if math.Abs(gpuRatio-pl.Power().GPUWatts) > 1e-9 {
		t.Errorf("GPU joules/sec = %v, want %v", gpuRatio, pl.Power().GPUWatts)
	}
	if gpuRatio <= cpuRatio {
		t.Error("GPU should draw more power than a single CPU core")
	}
}
