package profile

import (
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

func smallNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("small", tensor.Shape{N: 1, C: 3, H: 16, W: 16})
	x := b.Conv("conv", b.Input(), 8, 3, 1, 1)
	x = b.ReLU("relu", x)
	x = b.Flatten("flat", x)
	b.FullyConnected("fc", x, 10)
	return b.MustBuild()
}

func TestRunPopulatesAllCandidates(t *testing.T) {
	net := smallNet(t)
	pl := platform.JetsonTX2Like()
	tab, err := Run(net, NewSimSource(net, pl), DefaultOptions(primitives.ModeGPGPU))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			if v := tab.Time(i, p); math.IsInf(v, 1) || v <= 0 {
				t.Errorf("layer %d prim %s: time %v", i, primitives.ByID(p).Name, v)
			}
		}
	}
	for _, ed := range tab.Edges() {
		for _, fp := range tab.Candidates(ed.From) {
			for _, tp := range tab.Candidates(ed.To) {
				if v := tab.Penalty(ed.From, ed.To, fp, tp); math.IsInf(v, 1) || v < 0 {
					t.Errorf("edge %d->%d (%d,%d): penalty %v", ed.From, ed.To, fp, tp, v)
				}
			}
		}
	}
	for _, p := range tab.Candidates(tab.OutputLayer()) {
		if v := tab.OutputPenalty(p); math.IsInf(v, 1) || v < 0 {
			t.Errorf("output penalty for %s = %v", primitives.ByID(p).Name, v)
		}
	}
}

func TestCPUModeExcludesGPUPrimitives(t *testing.T) {
	net := smallNet(t)
	pl := platform.JetsonTX2Like()
	tab, err := Run(net, NewSimSource(net, pl), DefaultOptions(primitives.ModeCPU))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			if primitives.ByID(p).Proc == primitives.GPU {
				t.Errorf("layer %d has GPU candidate %s in CPU mode", i, primitives.ByID(p).Name)
			}
		}
	}
}

func TestAveragingSuppressesJitter(t *testing.T) {
	net := smallNet(t)
	pl := platform.JetsonTX2Like()
	src := NewSimSource(net, pl)

	one, err := Run(net, src, Options{Mode: primitives.ModeCPU, Samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(net, src, Options{Mode: primitives.ModeCPU, Samples: 200})
	if err != nil {
		t.Fatal(err)
	}
	noiseless := platform.JetsonTX2Like()
	noiseless.MeasurementNoise = 0
	truth, err := Run(net, NewSimSource(net, noiseless), Options{Mode: primitives.ModeCPU, Samples: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The 200-sample average must sit closer to the noise-free value
	// than a single sample for most entries.
	better, total := 0, 0
	for i := 1; i < truth.NumLayers(); i++ {
		for _, p := range truth.Candidates(i) {
			tv := truth.Time(i, p)
			d1 := math.Abs(one.Time(i, p) - tv)
			dm := math.Abs(many.Time(i, p) - tv)
			total++
			if dm <= d1 {
				better++
			}
		}
	}
	if better*2 < total {
		t.Errorf("averaging helped only %d/%d entries", better, total)
	}
}

func TestRunRejectsBadSamples(t *testing.T) {
	net := smallNet(t)
	if _, err := Run(net, NewSimSource(net, platform.JetsonTX2Like()), Options{Mode: primitives.ModeCPU}); err == nil {
		t.Error("zero samples should error")
	}
}

func TestProfileDeterministic(t *testing.T) {
	net := smallNet(t)
	a, err := Run(net, NewSimSource(net, platform.JetsonTX2Like()), DefaultOptions(primitives.ModeGPGPU))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, NewSimSource(net, platform.JetsonTX2Like()), DefaultOptions(primitives.ModeGPGPU))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < a.NumLayers(); i++ {
		for _, p := range a.Candidates(i) {
			if a.Time(i, p) != b.Time(i, p) {
				t.Fatalf("layer %d prim %d: %v != %v", i, p, a.Time(i, p), b.Time(i, p))
			}
		}
	}
}

func TestPenaltyStructure(t *testing.T) {
	// Same-layout same-processor pairs are free; crossing processors
	// costs at least the fixed transfer; changing layout costs > 0.
	net := smallNet(t)
	pl := platform.JetsonTX2Like()
	tab, err := Run(net, NewSimSource(net, pl), DefaultOptions(primitives.ModeGPGPU))
	if err != nil {
		t.Fatal(err)
	}
	convIdx := net.LayerIndex("conv")
	reluIdx := net.LayerIndex("relu")
	van := primitives.PVanilla.Idx
	if got := tab.Penalty(convIdx, reluIdx, van, van); got != 0 {
		t.Errorf("vanilla->vanilla penalty = %v, want 0", got)
	}
	cu := primitives.PCuDNNOp.Idx
	if got := tab.Penalty(convIdx, reluIdx, van, cu); got < pl.TransferFixedSec {
		t.Errorf("CPU->GPU penalty = %v, want >= fixed transfer %v", got, pl.TransferFixedSec)
	}
	nn := primitives.PNNPackOp.Idx
	if got := tab.Penalty(convIdx, reluIdx, van, nn); got <= 0 {
		t.Errorf("NCHW->NHWC penalty = %v, want > 0", got)
	}
}

func TestProfileGoogleNetBranches(t *testing.T) {
	// The branchy GoogleNet graph must profile without gaps.
	net := models.MustBuild("googlenet")
	pl := platform.JetsonTX2Like()
	tab, err := Run(net, NewSimSource(net, pl), Options{Mode: primitives.ModeGPGPU, Samples: 2})
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			if math.IsInf(tab.Time(i, p), 1) {
				missing++
			}
		}
	}
	if missing != 0 {
		t.Errorf("%d unmeasured (layer, primitive) entries", missing)
	}
}

func TestSimEnergySource(t *testing.T) {
	net := smallNet(t)
	pl := platform.JetsonTX2Like()
	opts := Options{Mode: primitives.ModeGPGPU, Samples: 3}
	tt, err := Run(net, NewSimSource(net, pl), opts)
	if err != nil {
		t.Fatal(err)
	}
	et, err := Run(net, NewSimEnergySource(net, pl), opts)
	if err != nil {
		t.Fatal(err)
	}
	if tt.NumLayers() != et.NumLayers() || len(tt.Edges()) != len(et.Edges()) {
		t.Fatal("objective tables have different structure")
	}
	pw := pl.Power()
	for i := 1; i < tt.NumLayers(); i++ {
		for _, p := range tt.Candidates(i) {
			joules := et.Time(i, p)
			secs := tt.Time(i, p)
			if joules <= 0 || math.IsInf(joules, 0) {
				t.Fatalf("layer %d prim %d energy %v", i, p, joules)
			}
			// Energy/time ratio stays between the CPU and GPU draws
			// (both objectives carry the same multiplicative jitter,
			// so the ratio is bounded by the power extremes with a
			// margin for independent sample noise).
			r := joules / secs
			lo, hi := pw.CPUWatts*0.8, pw.GPUWatts*1.25
			if r < lo || r > hi {
				t.Fatalf("layer %d prim %d joules/sec = %v outside [%v, %v]", i, p, r, lo, hi)
			}
		}
	}
	// Energy penalties populated on every edge.
	for _, ed := range et.Edges() {
		for _, fp := range et.Candidates(ed.From) {
			for _, tp := range et.Candidates(ed.To) {
				if v := et.Penalty(ed.From, ed.To, fp, tp); math.IsInf(v, 1) || v < 0 {
					t.Fatalf("edge %d->%d energy penalty %v", ed.From, ed.To, v)
				}
			}
		}
	}
}

// TestStrictRunAllocationsIndependentOfSamples: in strict mode a
// simulated sample allocates nothing, so profiling lenet5 with 50
// samples per pair allocates exactly as often as with 5.
func TestStrictRunAllocationsIndependentOfSamples(t *testing.T) {
	net := models.MustBuild("lenet5")
	pl := platform.JetsonTX2Like()
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(net, NewSimSource(net, pl), Options{Mode: primitives.ModeGPGPU, Samples: samples}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a5, a50 := allocs(5), allocs(50); a5 != a50 {
		t.Fatalf("Run allocates %v times at 5 samples and %v at 50; want equal", a5, a50)
	}
}
