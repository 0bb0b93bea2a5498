package core

import (
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/searchplan"
)

func TestSearchApproxFindsGoodConfiguration(t *testing.T) {
	net := models.MustBuild("mobilenet-v1")
	tab := profiled(t, net, primitives.ModeGPGPU)
	res, err := SearchApprox(tab, net, ApproxConfig{Config: Config{Episodes: 600, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Time, 0) || res.Time <= 0 {
		t.Fatalf("time = %v", res.Time)
	}
	// Validity: the reported time matches the assignment.
	if got := tab.TotalTime(res.Assignment); math.Abs(got-res.Time) > 1e-12 {
		t.Error("reported time inconsistent with assignment")
	}
	// Quality: far better than random search at the same budget, and
	// within striking distance of the exact optimum.
	rs := RandomSearchPlanned(searchplan.Compile(tab), 600, 1)
	if res.Time >= rs.Time {
		t.Errorf("approx agent %.4g should beat random search %.4g", res.Time, rs.Time)
	}
	opt, err := OptimalPlanned(searchplan.Compile(tab))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time > 3*opt.Time {
		t.Errorf("approx agent %.4g more than 3x off the optimum %.4g", res.Time, opt.Time)
	}
}

func TestSearchApproxGeneralizesFromFewEpisodes(t *testing.T) {
	// The approximator's selling point: on a deep network a *small*
	// budget already yields a decent configuration because layer-kind
	// x library knowledge transfers across layers. Compare against
	// the tabular agent at the same tiny budget.
	net := models.MustBuild("resnet50")
	tab := profiled(t, net, primitives.ModeGPGPU)
	const budget = 80
	approx, err := SearchApprox(tab, net, ApproxConfig{Config: Config{Episodes: budget, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	tabular := Search(tab, Config{Episodes: budget, Seed: 2})
	if approx.Time >= tabular.Time {
		t.Errorf("at %d episodes on resnet50, approx (%.4g) should beat tabular (%.4g)",
			budget, approx.Time, tabular.Time)
	}
}

func TestSearchApproxValidation(t *testing.T) {
	netA := models.MustBuild("lenet5")
	netB := models.MustBuild("alexnet")
	tab := profiled(t, netA, primitives.ModeCPU)
	if _, err := SearchApprox(tab, netB, ApproxConfig{Config: Config{Episodes: 10}}); err == nil {
		t.Error("network/table mismatch should error")
	}
}

func TestSearchApproxDeterministic(t *testing.T) {
	net := models.MustBuild("lenet5")
	tab := profiled(t, net, primitives.ModeGPGPU)
	a, err := SearchApprox(tab, net, ApproxConfig{Config: Config{Episodes: 150, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchApprox(tab, net, ApproxConfig{Config: Config{Episodes: 150, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Error("approx search should be seed-deterministic")
	}
}

func TestSearchApproxCurveInvariants(t *testing.T) {
	net := models.MustBuild("lenet5")
	tab := profiled(t, net, primitives.ModeGPGPU)
	res, err := SearchApprox(tab, net, ApproxConfig{Config: Config{Episodes: 200, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 200 {
		t.Fatalf("curve = %d points", len(res.Curve))
	}
	prev := math.Inf(1)
	for _, pt := range res.Curve {
		if pt.Best > prev+1e-15 {
			t.Fatal("best-so-far increased")
		}
		prev = pt.Best
	}
}
