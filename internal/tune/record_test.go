package tune

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/tensor"
)

// tunerRecord is the BENCH_tuner.json schema: the machine-readable
// tuned-vs-default evidence scripts/bench.sh emits and EXPERIMENTS.md
// quotes, stamped with the host and the dispatched GEMM kernel.
type tunerRecord struct {
	GemmKernel string       `json:"gemm_kernel"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	CPUModel   string       `json:"cpu_model"`
	Network    string       `json:"network"`
	Budget     int          `json:"budget"`
	Stats      Stats        `json:"stats"`
	Entries    []tunerEntry `json:"entries"`
	// SearchDefaultPredMs / SearchTunedPredMs are the plan totals
	// core.Search predicts from the profiled table without and with the
	// tuned times applied: sums of LUT entries, not engine runs.
	SearchDefaultPredMs float64 `json:"search_default_pred_ms"`
	SearchTunedPredMs   float64 `json:"search_tuned_pred_ms"`
}

type tunerEntry struct {
	Layer     int     `json:"layer"`
	Base      string  `json:"base"`
	Variant   string  `json:"variant"`
	DefaultMs float64 `json:"default_ms"`
	TunedMs   float64 `json:"tuned_ms"`
	Speedup   float64 `json:"speedup"`
}

// TestTunerRecord is the scripts/bench.sh hook: with QSDNN_TUNER_OUT
// set it autotunes lenet5 on the host engine and writes the
// tuned-vs-default record. QSDNN_TUNER_BUDGET overrides the per-pair
// measurement budget (default 8; CI smoke uses 4).
func TestTunerRecord(t *testing.T) {
	out := os.Getenv("QSDNN_TUNER_OUT")
	if out == "" {
		t.Skip("set QSDNN_TUNER_OUT to record a tuning run (see scripts/bench.sh)")
	}
	budget := 8
	if s := os.Getenv("QSDNN_TUNER_BUDGET"); s != "" {
		b, err := strconv.Atoi(s)
		if err != nil || b < 2 {
			t.Fatalf("QSDNN_TUNER_BUDGET=%q: want an integer >= 2", s)
		}
		budget = b
	}
	const netName = "lenet5"
	net := models.MustBuild(netName)

	const seed = 1
	eng := engine.New(net, seed, 0, engine.Parallelism(0))
	in := tensor.New(net.InputShape, tensor.NCHW)
	in.FillRandom(rand.New(rand.NewSource(seed)), 1)
	src, err := engine.NewSource(eng, in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tab, _, err := profile.RunContext(ctx, net, src, profile.Options{
		Mode: primitives.ModeCPU, Samples: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defRes := core.Search(tab, core.Config{Episodes: 500, Seed: seed})

	opts := DefaultOptions()
	opts.Budget = budget
	opts.Seed = seed
	cache, err := Tune(ctx, net, tab, EngineMeasurer{Src: src}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Marshal(); err != nil {
		t.Fatal(err)
	}
	// Apply skips exactly the entries slower than their base's
	// profiled time: the tuner and the profiler time the default in
	// separate runs, so a tuned win can lose to the profiled default.
	slower := 0
	for _, e := range cache.Entries {
		base, _ := primitives.ByName(e.Base)
		if e.Seconds > tab.Time(e.Layer, base.Idx) {
			slower++
		}
	}
	applied, skipped := cache.Apply(tab, net)
	if skipped != slower {
		t.Errorf("%d fresh entries skipped on the table they were tuned for, %d slower than their base", skipped, slower)
	}
	for _, a := range applied {
		eng.SetTuned(a.Layer, a.Base, a.Variant.Conv())
	}
	tunedRes := core.Search(tab, core.Config{Episodes: 500, Seed: seed})

	rec := tunerRecord{
		GemmKernel:          gemm.ActiveKernel(),
		GOARCH:              runtime.GOARCH,
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		CPUModel:            cpuModel(),
		Network:             netName,
		Budget:              cache.Budget,
		Stats:               cache.Stats,
		SearchDefaultPredMs: defRes.Time * 1e3,
		SearchTunedPredMs:   tunedRes.Time * 1e3,
	}
	for _, e := range cache.Entries {
		rec.Entries = append(rec.Entries, tunerEntry{
			Layer: e.Layer, Base: e.Base, Variant: e.Variant.String(),
			DefaultMs: e.DefaultSec * 1e3, TunedMs: e.Seconds * 1e3,
			Speedup: e.DefaultSec / e.Seconds,
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFileAtomic(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d tuned entries, best speedup %.2fx, searched plan predicted %0.3f -> %0.3f ms",
		out, len(rec.Entries), rec.Stats.BestSpeedup, rec.SearchDefaultPredMs, rec.SearchTunedPredMs)

	// The acceptance gate: at least one tuned variant beats its
	// default by >= 10% on a real zoo conv shape, and the searched
	// plan's predicted time got no worse.
	best := 0.0
	for _, e := range rec.Entries {
		if e.Speedup > best {
			best = e.Speedup
		}
	}
	if best < 1.10 {
		t.Errorf("no tuned variant beat its default by >= 10%% (best %.3fx)", best)
	}
	if rec.SearchTunedPredMs > rec.SearchDefaultPredMs*1.001 {
		t.Errorf("tuned times made the searched plan's predicted time worse: %.3f -> %.3f ms",
			rec.SearchDefaultPredMs, rec.SearchTunedPredMs)
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown"
// where the host has none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
