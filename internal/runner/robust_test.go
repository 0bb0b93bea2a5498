package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
)

// flakyProfile fails the first failures calls for each key, then
// profiles normally — the shape of a board that comes back after a
// transient outage.
func flakyProfile(pl *platform.Platform, failures int64, calls *atomic.Int64) ProfileFunc {
	real := countingProfile(pl, calls)
	var failed atomic.Int64
	return func(ctx context.Context, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		if failed.Add(1) <= failures {
			return nil, nil, fmt.Errorf("board unreachable (outage %d)", failed.Load())
		}
		return real(ctx, net, mode, samples)
	}
}

// TestCacheEvictsFailedBuilds: a failed profiling run must not poison
// the single-flight cache — the next request for the same key retries
// the build and can succeed. Without eviction the second batch below
// would replay the cached outage error forever.
func TestCacheEvictsFailedBuilds(t *testing.T) {
	cache := newTableCache()
	key := cacheKey{network: "lenet5", mode: primitives.ModeCPU, samples: 2}.String()
	boom := errors.New("board unreachable")
	if _, _, _, err := cache.get(key, func() (*lut.Table, *profile.Report, error) {
		return nil, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first get: err = %v, want the build error", err)
	}
	var built atomic.Int64
	tab, _, _, err := cache.get(key, func() (*lut.Table, *profile.Report, error) {
		built.Add(1)
		return &lut.Table{}, nil, nil
	})
	if err != nil || tab == nil {
		t.Fatalf("retry after failed build: tab=%v err=%v", tab, err)
	}
	if built.Load() != 1 {
		t.Errorf("retry ran the build %d times, want 1 (error entry not evicted?)", built.Load())
	}
	// The recovered entry is cached like any success.
	if _, _, _, err := cache.get(key, func() (*lut.Table, *profile.Report, error) {
		t.Error("third get rebuilt a cached success")
		return nil, nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.stats(); hits != 1 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}

// TestRunContextPartialFailure: one job's profiling fails; the other
// jobs complete with results, and the failed job carries its error
// instead of sinking the batch.
func TestRunContextPartialFailure(t *testing.T) {
	var calls atomic.Int64
	pf := countingProfile(platform.JetsonTX2Like(), &calls)
	failing := func(ctx context.Context, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		if mode == primitives.ModeGPGPU {
			return nil, nil, fmt.Errorf("GPU board unreachable")
		}
		return pf(ctx, net, mode, samples)
	}
	batch, err := RunContext(context.Background(), []Job{
		{Network: "lenet5", Mode: primitives.ModeCPU, Episodes: 60, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeGPGPU, Episodes: 60, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeCPU, Episodes: 60, Samples: 3},
	}, Options{Workers: 4, Profile: failing})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Canceled {
		t.Error("Canceled set without cancellation")
	}
	failed := 0
	for _, jr := range batch.Jobs {
		if jr.Err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed jobs, want 1", failed)
	}
	for i, want := range []bool{true, false, true} {
		jr := batch.Jobs[i]
		if jr.Complete != want {
			t.Errorf("job %d: Complete = %v, want %v (err %v)", i, jr.Complete, want, jr.Err)
		}
		if want && (jr.Best == nil || jr.Err != nil) {
			t.Errorf("job %d: healthy job missing results: best=%v err=%v", i, jr.Best, jr.Err)
		}
	}
	if jr := batch.Jobs[1]; jr.Err == nil || !strings.Contains(jr.Err.Error(), "GPU board unreachable") {
		t.Errorf("failed job error = %v", batch.Jobs[1].Err)
	}
	// The legacy Run surface still fails all-or-nothing on the same input.
	if _, err := Run([]Job{{Network: "lenet5", Mode: primitives.ModeGPGPU, Episodes: 60, Samples: 2}},
		Options{Profile: failing}); err == nil {
		t.Error("Run should surface the job error")
	}
}

// TestRunContextCancellationFlushesPartialResults: cancel mid-batch;
// the call returns promptly with Canceled set, completed seeds intact,
// unfinished jobs marked with a cancellation error — and no leaked
// worker goroutines.
func TestRunContextCancellationFlushesPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	slowish := func(c context.Context, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		if done.Add(1) == 1 {
			defer cancel() // first profiling run completes, then the batch is interrupted
		}
		return profile.RunContext(c, net, profile.NewSimSource(net, platform.JetsonTX2Like()),
			profile.Options{Mode: mode, Samples: samples})
	}
	jobs := []Job{
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{1, 2, 3, 4, 5, 6}, Episodes: 80, Samples: 2},
		{Network: "mobilenet-v1", Mode: primitives.ModeCPU, Seeds: []int64{1, 2, 3, 4}, Episodes: 80, Samples: 2},
	}
	before := runtime.NumGoroutine()
	batch, err := RunContext(ctx, jobs, Options{Workers: 1, Profile: slowish})
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Canceled {
		t.Error("Canceled not set")
	}
	var ran, skipped int
	for _, jr := range batch.Jobs {
		for _, sr := range jr.Seeds {
			if sr.Result != nil {
				ran++
			} else {
				skipped++
			}
		}
		if !jr.Complete {
			if jr.Err == nil || !errors.Is(jr.Err, context.Canceled) {
				t.Errorf("incomplete job %s: err = %v, want context.Canceled", jr.Job.Network, jr.Err)
			}
		}
	}
	if ran == 0 {
		t.Error("no partial results survived cancellation")
	}
	if skipped == 0 {
		t.Error("cancellation skipped nothing — cancel landed too late to test anything")
	}
	// Workers must have exited: allow a little scheduler slack.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines: %d before, %d after cancellation", before, after)
	}
}

// TestRunContextFaultDeterminismAcrossWorkers: with fault injection
// active, the batch outcome is still a pure function of (jobs, seeds,
// fault seed) — 1 worker and 8 workers produce byte-equal tables and
// identical search results.
func TestRunContextFaultDeterminismAcrossWorkers(t *testing.T) {
	jobs := []Job{
		{Network: "lenet5", Mode: primitives.ModeGPGPU, Seeds: []int64{1, 2, 3}, Episodes: 80, Samples: 3},
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{4, 5}, Episodes: 80, Samples: 3},
	}
	faults := profile.FaultConfig{
		Seed: 99, TransientRate: 0.08, NaNRate: 0.04, SpikeRate: 0.06, SpikeFactor: 40,
	}
	robust := profile.DefaultRobust()
	robust.SampleTimeout = 200 * time.Millisecond
	run := func(workers int) *BatchResult {
		b, err := RunContext(context.Background(), jobs,
			Options{Workers: workers, Faults: &faults, Robust: robust})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(1), run(8)
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Err != nil || jb.Err != nil {
			t.Fatalf("job %d failed under faults: %v / %v", i, ja.Err, jb.Err)
		}
		da, _ := ja.Table.MarshalJSON()
		db, _ := jb.Table.MarshalJSON()
		if string(da) != string(db) {
			t.Errorf("job %d: fault-injected tables differ across worker counts", i)
		}
		if ja.Best.Time != jb.Best.Time || ja.BestSeed != jb.BestSeed {
			t.Errorf("job %d: best differs across worker counts", i)
		}
		if (ja.Profile == nil) != (jb.Profile == nil) {
			t.Fatalf("job %d: report presence differs", i)
		}
		if ja.Profile != nil && ja.Profile.Render() != jb.Profile.Render() {
			t.Errorf("job %d: degradation reports differ across worker counts", i)
		}
	}
}

// TestRunContextSearchPanicIsolated: a panic inside one unit's search
// path fails that job with a captured stack; sibling jobs complete.
func TestRunContextSearchPanicIsolated(t *testing.T) {
	var calls atomic.Int64
	pf := countingProfile(platform.JetsonTX2Like(), &calls)
	exploding := func(ctx context.Context, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		if mode == primitives.ModeGPGPU {
			panic("profiler bug")
		}
		return pf(ctx, net, mode, samples)
	}
	batch, err := RunContext(context.Background(), []Job{
		{Network: "lenet5", Mode: primitives.ModeCPU, Episodes: 60, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeGPGPU, Episodes: 60, Samples: 2},
	}, Options{Workers: 2, Profile: exploding})
	if err != nil {
		t.Fatal(err)
	}
	if jr := batch.Jobs[0]; !jr.Complete || jr.Err != nil {
		t.Errorf("healthy sibling damaged: complete=%v err=%v", jr.Complete, jr.Err)
	}
	jr := batch.Jobs[1]
	if jr.Err == nil || !strings.Contains(jr.Err.Error(), "panicked") {
		t.Fatalf("panicking job err = %v", jr.Err)
	}
	if !strings.Contains(jr.Err.Error(), "robust_test") {
		t.Error("panic error lost the captured stack")
	}
}

// TestRunContextDegradationReportSurfaces: a fault schedule with
// permanent failures produces a job-level profile report whose
// exclusions match the (still valid) table.
func TestRunContextDegradationReportSurfaces(t *testing.T) {
	robust := profile.DefaultRobust()
	robust.SampleTimeout = 100 * time.Millisecond
	robust.BackoffBase = 100 * time.Microsecond
	faults := profile.FaultConfig{Seed: 42, TransientRate: 0.05, PermanentRate: 0.04, NaNRate: 0.03}
	batch, err := RunContext(context.Background(),
		[]Job{{Network: "lenet5", Mode: primitives.ModeGPGPU, Episodes: 80, Samples: 3}},
		Options{Workers: 2, Faults: &faults, Robust: robust})
	if err != nil {
		t.Fatal(err)
	}
	jr := batch.Jobs[0]
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if jr.Profile == nil || !jr.Profile.Flaky() {
		t.Fatal("fault-injected run produced no report activity")
	}
	data, err := jr.Table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lut.Load(data, jr.Net); err != nil {
		t.Errorf("degraded table failed Load round trip: %v", err)
	}
}
