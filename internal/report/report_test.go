package report

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
)

// fastOpts keeps the experiment harness quick under `go test`.
var fastOpts = Options{Episodes: 400, Samples: 3, Seed: 1}

func TestTableIIShapes(t *testing.T) {
	// The paper's qualitative claims, asserted on a representative
	// subset (full table in cmd/qsdnn-table2 and BenchmarkTableII).
	pl := platform.JetsonTX2Like()
	rows, err := TableIIParallel([]string{"lenet5", "vgg19", "mobilenet-v1"}, pl, fastOpts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Network] = r
	}

	for name, r := range byName {
		// Every library beats Vanilla on CPU for every network here.
		for lib, s := range r.LibSpeedupCPU {
			if s <= 1 {
				t.Errorf("%s: %s CPU speedup %.2f <= 1", name, lib, s)
			}
		}
		// QS-DNN never loses to the best single library.
		if r.QSvsBSLCPU < 0.999 || r.QSvsBSLGPU < 0.999 {
			t.Errorf("%s: QS/BSL = %.3f (CPU) %.3f (GPU), must be >= 1", name, r.QSvsBSLCPU, r.QSvsBSLGPU)
		}
		// QS-DNN at least matches Random Search at equal budget.
		if r.QSvsRSGPU < 0.999 {
			t.Errorf("%s: QS/RS = %.3f, must be >= 1", name, r.QSvsRSGPU)
		}
		// OpenBLAS > ATLAS on CPU (paper §III-B library ordering).
		if r.LibSpeedupCPU["OpenBLAS"] <= r.LibSpeedupCPU["ATLAS"] {
			t.Errorf("%s: OpenBLAS (%.1f) should beat ATLAS (%.1f)",
				name, r.LibSpeedupCPU["OpenBLAS"], r.LibSpeedupCPU["ATLAS"])
		}
	}

	// LeNet-5: the GPGPU winner is pure CPU (paper §VI-A).
	if byName["lenet5"].QSDNNGPUUsesGPU {
		t.Error("lenet5 GPGPU winner should use no GPU primitive")
	}
	// VGG19: large 3x3 network — CPU QS-DNN approaches the 45x claim.
	if got := byName["vgg19"].QSDNNCPU; got < 35 || got > 60 {
		t.Errorf("vgg19 CPU speedup = %.1fx, want ~45x (35..60)", got)
	}
	// VGG19 GPGPU beats cuDNN alone (the missing-FC effect).
	if byName["vgg19"].QSvsBSLGPU < 1.2 {
		t.Errorf("vgg19 QS/BSL GPGPU = %.2f, want > 1.2 (cuDNN lacks FC)", byName["vgg19"].QSvsBSLGPU)
	}
	// MobileNet: >1.4x over BSL (paper §VI-A), and the big net really
	// uses the GPU.
	if byName["mobilenet-v1"].QSvsBSLGPU < 1.4 {
		t.Errorf("mobilenet QS/BSL GPGPU = %.2f, want > 1.4", byName["mobilenet-v1"].QSvsBSLGPU)
	}
	if !byName["vgg19"].QSDNNGPUUsesGPU {
		t.Error("vgg19 GPGPU winner should use the GPU")
	}
}

func TestFormatTableII(t *testing.T) {
	pl := platform.JetsonTX2Like()
	rows, err := TableIIParallel([]string{"lenet5"}, pl, fastOpts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTableII(rows)
	for _, want := range []string{"lenet5", "OpenBLAS", "cuDNN", "QS/BSL", "Headlines"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestFig4Curve(t *testing.T) {
	pl := platform.JetsonTX2Like()
	curve, err := Fig4("mobilenet-v1", pl, Options{Episodes: 300, Samples: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 300 {
		t.Fatalf("curve = %d points", len(curve))
	}
	// The learning curve's defining shape: late-search episode times
	// are far below early exploration times.
	early, late := 0.0, 0.0
	for _, pt := range curve[:50] {
		early += pt.Time
	}
	for _, pt := range curve[250:] {
		late += pt.Time
	}
	if late >= early {
		t.Errorf("late episodes (%.3g) should be faster than early exploration (%.3g)", late, early)
	}
	csv := FormatCurveCSV(curve)
	if !strings.HasPrefix(csv, "episode,epsilon,time_ms,best_ms\n") {
		t.Error("CSV header wrong")
	}
	if strings.Count(csv, "\n") != 301 {
		t.Errorf("CSV has %d lines", strings.Count(csv, "\n"))
	}
	plot := ASCIIPlot(curve, 40, 8)
	if !strings.Contains(plot, "*") || !strings.Contains(plot, "episodes") {
		t.Error("ASCII plot looks empty")
	}
}

func TestFig5Sweep(t *testing.T) {
	pl := platform.JetsonTX2Like()
	points, err := Fig5("mobilenet-v1", pl, 3, Options{Episodes: 350, Samples: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, pt := range points {
		if pt.RLMean <= 0 || pt.RSMean <= 0 || math.IsNaN(pt.RLStd) || math.IsNaN(pt.RSStd) {
			t.Fatalf("bad point %+v", pt)
		}
		if pt.Episodes > 350 {
			t.Fatalf("budget %d beyond Episodes option", pt.Episodes)
		}
	}
	// At the largest budget RL must beat RS (Fig. 5's story).
	last := points[len(points)-1]
	if last.RLMean >= last.RSMean {
		t.Errorf("at %d episodes RL (%.4g) should beat RS (%.4g)", last.Episodes, last.RLMean, last.RSMean)
	}
	// RL's best-found time never degrades with budget (averaged over
	// repeats it should be monotone within noise; assert loosely).
	first := points[0]
	if last.RLMean > first.RLMean {
		t.Errorf("RL at %d episodes (%.4g) worse than at %d (%.4g)",
			last.Episodes, last.RLMean, first.Episodes, first.RLMean)
	}
	csv := FormatFig5CSV(points)
	if !strings.HasPrefix(csv, "episodes,") {
		t.Error("CSV header wrong")
	}
}

func TestFig1Demo(t *testing.T) {
	pl := platform.JetsonTX2Like()
	greedy, rl, err := Fig1Demo("mobilenet-v1", pl, Options{Episodes: 400, Samples: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rl <= 0 || greedy <= 0 {
		t.Fatalf("times: greedy %v rl %v", greedy, rl)
	}
	if rl > greedy {
		t.Errorf("QS-DNN (%.4g) should not lose to greedy (%.4g)", rl, greedy)
	}
}

func TestUnknownNetworkErrors(t *testing.T) {
	pl := platform.JetsonTX2Like()
	if _, err := TableIIParallel([]string{"nope"}, pl, fastOpts, 1, 1); err == nil {
		t.Error("unknown network should error")
	}
	if _, err := Fig4("nope", pl, fastOpts); err == nil {
		t.Error("unknown network should error")
	}
	if _, _, err := Fig1Demo("nope", pl, fastOpts); err == nil {
		t.Error("unknown network should error")
	}
	if _, err := Fig5("nope", pl, 2, fastOpts); err == nil {
		t.Error("unknown network should error")
	}
}

func TestTableIIParallelMatchesSequential(t *testing.T) {
	pl := platform.JetsonTX2Like()
	nets := []string{"lenet5", "mobilenet-v1"}
	opts := Options{Episodes: 150, Samples: 3, Seed: 1}
	seq, err := TableIIParallel(nets, pl, opts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := TableIIParallel(nets, pl, opts, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel rows differ from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestTableIIParallelBestOfSeeds(t *testing.T) {
	pl := platform.JetsonTX2Like()
	opts := Options{Episodes: 150, Samples: 3, Seed: 1}
	one, err := TableIIParallel([]string{"lenet5"}, pl, opts, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	three, err := TableIIParallel([]string{"lenet5"}, pl, opts, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// More seeds can only match or improve the QS-DNN speedups.
	if three[0].QSDNNCPU < one[0].QSDNNCPU || three[0].QSDNNGPU < one[0].QSDNNGPU {
		t.Errorf("best-of-3 (%v/%v) worse than single seed (%v/%v)",
			three[0].QSDNNCPU, three[0].QSDNNGPU, one[0].QSDNNCPU, one[0].QSDNNGPU)
	}
}
