package core

import (
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/searchplan"
	"repro/internal/tensor"
)

func TestPBQPOptimalOnChains(t *testing.T) {
	// On chain networks only R0/RI/RII fire, so PBQP must equal the
	// Viterbi optimum exactly.
	for _, name := range []string{"lenet5", "mobilenet-v1", "tinyyolo"} {
		for _, mode := range []primitives.Mode{primitives.ModeCPU, primitives.ModeGPGPU} {
			tab := profiled(t, models.MustBuild(name), mode)
			opt, err := OptimalPlanned(searchplan.Compile(tab))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			pb := PBQP(tab)
			if math.Abs(pb.Time-opt.Time) > 1e-12 {
				t.Errorf("%s/%v: PBQP %.6g != optimal %.6g", name, mode, pb.Time, opt.Time)
			}
		}
	}
}

func TestPBQPOptimalOnSmallChain(t *testing.T) {
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	opt, err := OptimalPlanned(searchplan.Compile(tab))
	if err != nil {
		t.Fatal(err)
	}
	pb := PBQP(tab)
	if math.Abs(pb.Time-opt.Time) > 1e-12 {
		t.Errorf("PBQP %.6g != optimal %.6g", pb.Time, opt.Time)
	}
	if got := tab.TotalTime(pb.Assignment); math.Abs(got-pb.Time) > 1e-12 {
		t.Error("PBQP reported time inconsistent with its assignment")
	}
}

func TestPBQPMatchesExhaustiveOnTinyBranch(t *testing.T) {
	// A small branchy net: RN fires, so PBQP is heuristic — but on
	// this instance it should land at (or extremely near) the
	// exhaustive optimum.
	b := nn.NewBuilder("tiny-branch", tensor.Shape{N: 1, C: 4, H: 8, W: 8})
	x := b.Conv("stem", b.Input(), 8, 1, 1, 0)
	l := b.ReLU("left", x)
	r := b.BatchNorm("right", x)
	b.EltwiseAdd("add", l, r)
	net := b.MustBuild()
	tab := profiled(t, net, primitives.ModeGPGPU)
	exh, err := ExhaustivePlanned(searchplan.Compile(tab), 1e7)
	if err != nil {
		t.Fatal(err)
	}
	pb := PBQP(tab)
	if pb.Time < exh.Time-1e-12 {
		t.Fatalf("PBQP below exhaustive optimum — impossible")
	}
	if pb.Time > exh.Time*1.10 {
		t.Errorf("PBQP %.6g more than 10%% above optimum %.6g on a tiny instance", pb.Time, exh.Time)
	}
}

func TestPBQPOnBranchyNetworksIsValidAndStrong(t *testing.T) {
	// GoogleNet/ResNet exercise RN heavily. PBQP must produce a valid
	// assignment whose time beats the single-library baselines.
	for _, name := range []string{"googlenet", "resnet50", "squeezenet"} {
		tab := profiled(t, models.MustBuild(name), primitives.ModeGPGPU)
		pb := PBQP(tab)
		if len(pb.Assignment) != tab.NumLayers() {
			t.Fatalf("%s: assignment length %d", name, len(pb.Assignment))
		}
		if math.IsInf(pb.Time, 0) || pb.Time <= 0 {
			t.Fatalf("%s: PBQP time %v", name, pb.Time)
		}
		_, bsl := BestSingleLibrary(tab)
		if pb.Time > bsl.Time {
			t.Errorf("%s: PBQP %.4g worse than best single library %.4g", name, pb.Time, bsl.Time)
		}
	}
}

func TestPBQPAndRLAgree(t *testing.T) {
	// On MobileNet (chain) both PBQP and a converged RL search hit the
	// same optimum — the paper's point is that RL gets there with a
	// sample-based method that scales to settings where PBQP's exact
	// reductions don't apply.
	tab := profiled(t, models.MustBuild("mobilenet-v1"), primitives.ModeGPGPU)
	pb := PBQP(tab)
	rl := Search(tab, Config{Episodes: 1000, Seed: 1})
	if math.Abs(pb.Time-rl.Time) > pb.Time*0.01 {
		t.Errorf("PBQP %.6g and converged RL %.6g should agree within 1%%", pb.Time, rl.Time)
	}
}

func TestPBQPDeterministic(t *testing.T) {
	tab := profiled(t, models.MustBuild("googlenet"), primitives.ModeGPGPU)
	a := PBQP(tab)
	b := PBQP(tab)
	if a.Time != b.Time {
		t.Error("PBQP should be deterministic")
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("PBQP assignments differ between runs")
		}
	}
}
