package tune

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
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
// quotes.
type tunerRecord struct {
	GemmKernel string       `json:"gemm_kernel"`
	Network    string       `json:"network"`
	Budget     int          `json:"budget"`
	Stats      Stats        `json:"stats"`
	Entries    []tunerEntry `json:"entries"`
	// SearchDefaultMs / SearchTunedMs are the end-to-end searched
	// engine times (core.Search over the same profiled table without
	// and with the tuned candidates applied).
	SearchDefaultMs float64 `json:"search_default_ms"`
	SearchTunedMs   float64 `json:"search_tuned_ms"`
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
// set it autotunes a real zoo network on the host engine and writes
// the tuned-vs-default record. QSDNN_TUNER_BUDGET overrides the
// per-pair measurement budget (default 8; CI smoke uses 4),
// QSDNN_TUNER_NET the network (default lenet5).
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
	netName := os.Getenv("QSDNN_TUNER_NET")
	if netName == "" {
		netName = "lenet5"
	}
	net, err := models.Build(netName)
	if err != nil {
		t.Fatal(err)
	}

	primitives.EnableTunedVariants()
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
	applied, skipped := cache.Apply(tab, net)
	if skipped != 0 {
		t.Errorf("%d fresh entries skipped on the table they were tuned for", skipped)
	}
	for _, a := range applied {
		eng.SetTuned(a.Layer, a.Twin, a.Variant.Conv())
	}
	tunedRes := core.Search(tab, core.Config{Episodes: 500, Seed: seed})

	rec := tunerRecord{
		GemmKernel:      gemm.ActiveKernel(),
		Network:         netName,
		Budget:          cache.Budget,
		Stats:           cache.Stats,
		SearchDefaultMs: defRes.Time * 1e3,
		SearchTunedMs:   tunedRes.Time * 1e3,
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
	t.Logf("wrote %s: %d tuned entries, best speedup %.2fx, searched %0.3f -> %0.3f ms",
		out, len(rec.Entries), rec.Stats.BestSpeedup, rec.SearchDefaultMs, rec.SearchTunedMs)

	// The acceptance gate: at least one tuned variant beats its
	// default by >= 10% on a real zoo conv shape, and the searched
	// engine got no slower.
	best := 0.0
	for _, e := range rec.Entries {
		if e.Speedup > best {
			best = e.Speedup
		}
	}
	if best < 1.10 {
		t.Errorf("no tuned variant beat its default by >= 10%% (best %.3fx)", best)
	}
	if rec.SearchTunedMs > rec.SearchDefaultMs*1.001 {
		t.Errorf("tuned candidates made the searched engine slower: %.3f -> %.3f ms",
			rec.SearchDefaultMs, rec.SearchTunedMs)
	}
}
