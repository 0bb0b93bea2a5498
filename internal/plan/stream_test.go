package plan

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
)

func mobilenetPlan(t *testing.T) *Plan {
	t.Helper()
	net := models.MustBuild("mobilenet-v1")
	pl := platform.JetsonTX2Like()
	tab, err := profile.Run(net, profile.NewSimSource(net, pl),
		profile.Options{Mode: primitives.ModeGPGPU, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := core.Search(tab, core.Config{Episodes: 600, Seed: 1})
	p, err := Build(net, tab, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnalyzeConsistency(t *testing.T) {
	p := mobilenetPlan(t)
	a := Analyze(p)
	if math.Abs(a.LatencySeconds-p.TotalSeconds) > 1e-12 {
		t.Errorf("latency %v != plan total %v", a.LatencySeconds, p.TotalSeconds)
	}
	// Busy times sum to the latency (every step occupies exactly one
	// resource).
	var sum float64
	for _, b := range a.PerResourceSeconds {
		sum += b
	}
	if math.Abs(sum-a.LatencySeconds) > 1e-12 {
		t.Errorf("resource busy sum %v != latency %v", sum, a.LatencySeconds)
	}
	// The searched MobileNet mapping uses CPU, GPU and interconnect.
	for _, res := range []string{"CPU", "GPU", "interconnect"} {
		if a.PerResourceSeconds[res] <= 0 {
			t.Errorf("resource %s unused — expected a heterogeneous mapping", res)
		}
	}
	if a.MaxPipelineSpeedup < 1 {
		t.Errorf("max pipeline speedup %v < 1", a.MaxPipelineSpeedup)
	}
	if a.ThroughputUpperBound <= 1/a.LatencySeconds-1e-9 {
		t.Error("pipelined upper bound should be at least the sequential rate")
	}
}

func TestRender(t *testing.T) {
	a := Analyze(mobilenetPlan(t))
	out := a.Render()
	for _, want := range []string{"latency", "img/s", "bottleneck"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// One line per resource, in name order: the output must not depend
	// on map iteration order.
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		names = append(names, strings.Fields(line)[0])
	}
	if len(names) != len(a.PerResourceSeconds) || !sort.StringsAreSorted(names) {
		t.Errorf("resource lines %v, want all %d resources sorted", names, len(a.PerResourceSeconds))
	}
}
