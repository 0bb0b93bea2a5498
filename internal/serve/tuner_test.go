package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/health"
	"repro/internal/primitives"
	"repro/internal/tune"
)

// writeTunerCache saves a lenet5 CPU cache with a tuned conv1 variant
// whose time no search can refuse, plus a forged entry the apply layer
// must skip, plus extra, and returns its path.
func writeTunerCache(t *testing.T, extra ...tune.Entry) string {
	t.Helper()
	cachePath := filepath.Join(t.TempDir(), "tuned.qsd")
	c := &tune.Cache{
		Network: "lenet5",
		Mode:    primitives.ModeCPU.String(),
		Budget:  8,
		Entries: append([]tune.Entry{
			{Layer: 1, Base: "openblas-gemm-im2col", Variant: tune.Variant{KC: 32}, Seconds: 1e-7, DefaultSec: 1e-3},
			{Layer: 999, Base: "openblas-gemm-im2col", Variant: tune.Variant{KC: 32}, Seconds: 1e-7, DefaultSec: 1e-3},
		}, extra...),
	}
	c.Stats = tune.Stats{PairsTuned: 1, Generated: 100, Measured: 10, Entries: 1, BestSpeedup: 2}
	if err := c.Save(cachePath); err != nil {
		t.Fatal(err)
	}
	return cachePath
}

// TestServeTunerCache: a server configured with a tuned-variant cache
// writes the tuned time onto the base primitive's entry of every
// matching profiled table, the search selects the tuned base, and
// /statusz reports the tuner state.
func TestServeTunerCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 4, TunerCache: writeTunerCache(t)})
	code, _, payload := postOptimize(t, ts.URL, fastBody(1))
	if code != http.StatusOK {
		t.Fatalf("optimize: %d %s", code, payload)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(payload, &or); err != nil {
		t.Fatal(err)
	}
	var pr PlanResponse
	if err := json.Unmarshal(or.Plan, &pr); err != nil {
		t.Fatal(err)
	}
	if ch := pr.Choices[0]; ch.Seconds != 1e-7 || ch.Primitive != "openblas-gemm-im2col" {
		t.Errorf("layer 1 choice %+v, want openblas-gemm-im2col at its tuned 1e-7 s", ch)
	}

	st := srv.Status()
	if st.Tuner == nil || !st.Tuner.Loaded || st.Tuner.Error != "" {
		t.Fatalf("tuner status: %+v", st.Tuner)
	}
	if st.Tuner.Network != "lenet5" || st.Tuner.Entries != 2 {
		t.Errorf("tuner identity: %+v", st.Tuner)
	}
	if st.Tuner.Applied != 1 || st.Tuner.Skipped != 1 {
		t.Errorf("applied/skipped = %d/%d, want 1/1", st.Tuner.Applied, st.Tuner.Skipped)
	}
	if st.Tuner.Stats.BestSpeedup != 2 {
		t.Errorf("stats not echoed: %+v", st.Tuner.Stats)
	}
}

// TestServeTunerCacheCanaries: a tuned base entry holds the tuner's
// time, not the simulator's, so canaries must leave it alone — on a
// stable backend no round sees drift or quarantines a library. The
// cache also tunes every conv2 lowering, which puts the simulator's
// conv2 times far outside OpenBLAS's drift band.
func TestServeTunerCacheCanaries(t *testing.T) {
	var conv2 []tune.Entry
	for _, base := range tune.Bases() {
		conv2 = append(conv2, tune.Entry{Layer: 3, Base: base.Name, Variant: tune.Variant{KC: 32}, Seconds: 1e-7, DefaultSec: 1e-3})
	}
	srv, ts := newTestServer(t, Config{
		MaxInflight: 1, QueueDepth: 4, TunerCache: writeTunerCache(t, conv2...),
		Health: &health.Config{CanarySize: 1 << 20},
	})
	code, _, payload := postOptimize(t, ts.URL, fastBody(1))
	if code != http.StatusOK {
		t.Fatalf("optimize: %d %s", code, payload)
	}
	if st := srv.Status(); st.Tuner == nil || st.Tuner.Applied != 4 {
		t.Fatalf("tuner status: %+v", st.Tuner)
	}
	for r := 0; r < 4; r++ {
		if tick := srv.CanaryTick(context.Background()); tick.Measured == 0 {
			t.Fatalf("round %d measured nothing: %+v", r, tick)
		}
	}
	if st := srv.Status(); st.DriftedEntries != 0 || st.Quarantines != 0 {
		t.Errorf("stable backend: %d drifted entries, %d quarantines", st.DriftedEntries, st.Quarantines)
	}
}

// TestServeTunerCacheCorrupt: a torn or corrupt cache file must not
// stop the daemon — it starts, reports the load error in /statusz, and
// serves untuned defaults.
func TestServeTunerCacheCorrupt(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "tuned.qsd")
	if err := os.WriteFile(cachePath, []byte("QSD1 torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 4, TunerCache: cachePath})
	code, _, payload := postOptimize(t, ts.URL, fastBody(2))
	if code != http.StatusOK {
		t.Fatalf("optimize with corrupt tuner cache: %d %s", code, payload)
	}
	st := srv.Status()
	if st.Tuner == nil || st.Tuner.Loaded || st.Tuner.Error == "" {
		t.Fatalf("corrupt cache status: %+v", st.Tuner)
	}
	if st.Tuner.Applied != 0 {
		t.Errorf("corrupt cache still applied %d tunings", st.Tuner.Applied)
	}
}
