package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
)

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 0, 1<<16)
	tmp := make([]byte, 4096)
	for {
		n, err := r.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			break
		}
	}
	return string(buf), runErr
}

// fast settings keep CLI tests quick.
const (
	fastEpisodes = 200
	fastSamples  = 3
)

func TestModelsCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run("models", "", "gpgpu", fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lenet5", "vgg19", "mobilenet-v1", "params"} {
		if !strings.Contains(out, want) {
			t.Errorf("models output missing %q", want)
		}
	}
}

func TestPlatformsCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run("platforms", "", "gpgpu", fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tx2-like", "xavier-like", "GFLOPs"} {
		if !strings.Contains(out, want) {
			t.Errorf("platforms output missing %q", want)
		}
	}
}

func TestSpaceCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run("space", "lenet5", "gpgpu", fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "design space") || !strings.Contains(out, "GPGPU") {
		t.Errorf("space output: %s", out)
	}
}

func TestProfileThenSearchWithLUTFile(t *testing.T) {
	lutFile := filepath.Join(t.TempDir(), "lenet.lut.json")
	if _, err := capture(t, func() error {
		return run("profile", "lenet5", "cpu", fastEpisodes, fastSamples, 1, lutFile, "tx2-like", 1, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(lutFile); err != nil || fi.Size() == 0 {
		t.Fatalf("LUT file not written: %v", err)
	}
	out, err := capture(t, func() error {
		return run("search", "lenet5", "cpu", fastEpisodes, fastSamples, 1, lutFile, "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Vanilla baseline", "QS-DNN", "per-layer selection", "library mix"} {
		if !strings.Contains(out, want) {
			t.Errorf("search output missing %q", want)
		}
	}
}

func TestSearchWithoutLUT(t *testing.T) {
	out, err := capture(t, func() error {
		return run("search", "lenet5", "gpgpu", fastEpisodes, fastSamples, 1, "", "nano-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "speedup vs Vanilla") {
		t.Errorf("search output: %s", out)
	}
}

func TestPlanCommand(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	out, err := capture(t, func() error {
		return run("plan", "lenet5", "gpgpu", fastEpisodes, fastSamples, 1, trace, "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"deployment plan", "transfers", "chrome trace"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q", want)
		}
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Error("trace file not written")
	}
}

func TestPBQPCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run("pbqp", "lenet5", "gpgpu", fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PBQP") || !strings.Contains(out, "QS-DNN") {
		t.Errorf("pbqp output: %s", out)
	}
}

func TestParetoCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run("pareto", "lenet5", "gpgpu", fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Pareto front") || !strings.Contains(out, "mJ") {
		t.Errorf("pareto output: %s", out)
	}
}

// TestParetoFaultSeedDegrades: -fault-seed reaches both profiling
// passes of `qsdnn pareto` (latency and energy), each pass reports its
// degradation, and every front point uses only primitives that both
// degraded tables kept.
func TestParetoFaultSeedDegrades(t *testing.T) {
	ctx := context.Background()
	ft := faultFlags{faultSeed: 42}
	const samples = 5
	out, err := capture(t, func() error {
		return runCtx(ctx, "pareto", "lenet5", "gpgpu", fastEpisodes, samples, 1, "", "tx2-like", 1, 1,
			ft, durableFlags{}, engineFlags{}, serveFlags{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, "profiling lenet5"); n != 2 || !strings.Contains(out, "dropped ") {
		t.Fatalf("want a degradation report from each of the 2 passes, got %d:\n%s", n, out)
	}
	net := models.MustBuild("lenet5")
	var tt, et *lut.Table
	if _, err := capture(t, func() (err error) {
		tt, et, err = paretoTables(ctx, ft, net, platform.JetsonTX2Like(), primitives.ModeGPGPU, samples)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	front, err := core.ParetoFront(tt, et, nil, core.Config{Episodes: fastEpisodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range front {
		for i, id := range p.Assignment {
			if !tt.IsCandidate(i, id) || !et.IsCandidate(i, id) {
				t.Errorf("lambda %g: layer %d uses %s, dropped by a profiling pass",
					p.Lambda, i, primitives.ByID(id).Name)
			}
		}
	}
}

func TestAnalyzeCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run("analyze", "lenet5", "cpu", fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"optimized", "top", "latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q", want)
		}
	}
}

func TestBenchAllCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run("bench-all", "lenet5,mobilenet-v1", "both", fastEpisodes, fastSamples, 1, "", "tx2-like", 4, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lenet5", "mobilenet-v1", "CPU", "GPGPU", "qsdnn(ms)", "profile cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench-all output missing %q:\n%s", want, out)
		}
	}
	// 2 networks x 2 modes x 2 seeds = 8 units over 4 distinct tables.
	if !strings.Contains(out, "profile cache: 4 runs, 4 shared") {
		t.Errorf("bench-all cache accounting wrong:\n%s", out)
	}
}

func TestBenchAllSingleMode(t *testing.T) {
	out, err := capture(t, func() error {
		return run("bench-all", "lenet5", "cpu", fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "GPGPU") {
		t.Errorf("cpu-only bench-all mentions GPGPU:\n%s", out)
	}
}

func TestBenchAllErrors(t *testing.T) {
	if _, err := capture(t, func() error {
		return run("bench-all", "nope", "cpu", 10, 2, 1, "", "tx2-like", 1, 1)
	}); err == nil {
		t.Error("bench-all with unknown network should error")
	}
	if _, err := capture(t, func() error {
		return run("bench-all", "lenet5", "turbo", 10, 2, 1, "", "tx2-like", 1, 1)
	}); err == nil {
		t.Error("bench-all with unknown mode should error")
	}
}

func TestErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		f    func() error
	}{
		{"unknown command", func() error {
			return run("wat", "lenet5", "cpu", 10, 2, 1, "", "tx2-like", 1, 1)
		}},
		{"unknown model", func() error {
			return run("search", "nope", "cpu", 10, 2, 1, "", "tx2-like", 1, 1)
		}},
		{"unknown mode", func() error {
			return run("search", "lenet5", "turbo", 10, 2, 1, "", "tx2-like", 1, 1)
		}},
		{"unknown platform", func() error {
			return run("search", "lenet5", "cpu", 10, 2, 1, "", "warpdrive", 1, 1)
		}},
		{"missing lut file", func() error {
			return run("search", "lenet5", "cpu", 10, 2, 1, "/nonexistent/x.json", "tx2-like", 1, 1)
		}},
	}
	for _, tc := range cases {
		if _, err := capture(t, tc.f); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestBenchAllWithFaultInjection: the acceptance scenario — a seeded
// fault schedule through bench-all completes (transient faults retried
// away, persistent failures degraded), and the summary is
// deterministic for a fixed seed.
func TestBenchAllWithFaultInjection(t *testing.T) {
	ft := faultFlags{faultSeed: 42, retries: 3, sampleTimeout: 250 * time.Millisecond}
	bench := func() string {
		out, err := capture(t, func() error {
			return runCtx(context.Background(), "bench-all", "lenet5", "both",
				fastEpisodes, fastSamples, 1, "", "tx2-like", 4, 2, ft, durableFlags{}, engineFlags{}, serveFlags{})
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := bench(), bench()
	// The summary block (everything before TimingSummary's wall-clock
	// lines) must be byte-identical across runs.
	cut := func(s string) string { return strings.SplitN(s, "batch wall-clock", 2)[0] }
	if cut(a) != cut(b) {
		t.Errorf("fault-injected bench-all not deterministic:\n%s\nvs\n%s", cut(a), cut(b))
	}
	if !strings.Contains(a, "qsdnn(ms)") || strings.Contains(a, "FAILED") {
		t.Errorf("bench-all under faults did not complete cleanly:\n%s", a)
	}
}

// TestSearchWithRobustProfiling: -robust plus fault injection on the
// single-network pipeline still produces a full report, and the CLI
// prints the profiling report when the machinery fired.
func TestSearchWithRobustProfiling(t *testing.T) {
	ft := faultFlags{robust: true, faultSeed: 7, sampleTimeout: 250 * time.Millisecond}
	out, err := capture(t, func() error {
		return runCtx(context.Background(), "search", "lenet5", "cpu",
			fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1, ft, durableFlags{}, engineFlags{}, serveFlags{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "QS-DNN") {
		t.Errorf("search output missing report:\n%s", out)
	}
	if !strings.Contains(out, "retries") {
		t.Errorf("fault-injected search printed no profiling report:\n%s", out)
	}
}

// TestBenchAllInterrupted: a canceled context makes bench-all return
// an "interrupted" error after flushing whatever summary exists —
// the SIGINT path without the signal plumbing.
func TestBenchAllInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := capture(t, func() error {
		return runCtx(ctx, "bench-all", "lenet5", "cpu",
			fastEpisodes, fastSamples, 1, "", "tx2-like", 1, 1, faultFlags{}, durableFlags{}, engineFlags{}, serveFlags{})
	})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
	if !strings.Contains(out, "batch interrupted") {
		t.Errorf("interrupted bench-all printed no partial-results marker:\n%s", out)
	}
}

func TestExportCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "lenet.json")
	msg, err := capture(t, func() error {
		return run("export", "lenet5", "cpu", fastEpisodes, fastSamples, 1, out, "tx2-like", 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "Graphviz") {
		t.Errorf("export output: %s", msg)
	}
	arch, err := os.ReadFile(out)
	if err != nil || !strings.Contains(string(arch), `"kind": "Conv"`) {
		t.Errorf("architecture JSON bad: %v", err)
	}
	dot, err := os.ReadFile(strings.TrimSuffix(out, ".json") + ".dot")
	if err != nil || !strings.Contains(string(dot), "digraph") {
		t.Errorf("dot file bad: %v", err)
	}
	// The DOT annotations carry the searched primitives.
	if !strings.Contains(string(dot), "sparse-") && !strings.Contains(string(dot), "nnpack-") &&
		!strings.Contains(string(dot), "openblas-") {
		t.Error("dot missing primitive annotations")
	}
}
