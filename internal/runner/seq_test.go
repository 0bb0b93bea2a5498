package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
)

// The workers=1 regression guard: a one-worker batch must run fully
// sequentially, with no goroutine parked on a single-flight channel,
// under the same cache contract as a pooled batch.

func seqTestTable(t testing.TB) *lut.Table {
	t.Helper()
	net := models.LeNet5()
	tab, _, err := profile.RunContext(context.Background(), net,
		profile.NewSimSource(net, platform.JetsonTX2Like()),
		profile.Options{Mode: primitives.ModeCPU, Samples: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSequentialCacheNeverParks runs a one-worker batch through the
// one table cache: with a single caller no lookup parks, and each
// distinct (network, mode, samples) key is built exactly once.
func TestSequentialCacheNeverParks(t *testing.T) {
	tab := seqTestTable(t)
	builds := map[string]int{}
	count := func(ctx context.Context, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		builds[cacheKey{net.Name, mode, samples}.String()]++
		return tab, nil, nil
	}
	jobs := []Job{
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{1, 2}, Episodes: 40, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{3}, Episodes: 40, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{4}, Episodes: 40, Samples: 3},
	}
	c := newTableCache()
	if _, err := runContext(context.Background(), jobs, Options{Workers: 1, Profile: count}, c); err != nil {
		t.Fatal(err)
	}
	if len(builds) != 2 {
		t.Errorf("built %d keys, want 2: %v", len(builds), builds)
	}
	for key, n := range builds {
		if n != 1 {
			t.Errorf("key %s built %d times, want 1", key, n)
		}
	}
	if hits, misses := c.stats(); hits != 2 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 2/2", hits, misses)
	}
	if p := c.parkedWaiters(); p != 0 {
		t.Errorf("one-worker batch parked %d waiters, want 0", p)
	}
}

func TestSequentialCacheRetriesFailedBuild(t *testing.T) {
	c := newTableCache()
	tab := seqTestTable(t)
	key := cacheKey{network: "lenet5", mode: primitives.ModeCPU, samples: 2}.String()
	calls := 0
	flaky := func() (*lut.Table, *profile.Report, error) {
		calls++
		if calls == 1 {
			return nil, nil, fmt.Errorf("board unreachable")
		}
		return tab, nil, nil
	}
	if _, _, _, err := c.get(key, flaky); err == nil {
		t.Fatal("first build should fail")
	}
	got, _, _, err := c.get(key, flaky)
	if err != nil || got != tab {
		t.Fatalf("retry after failure: got %v, %v", got, err)
	}
	if calls != 2 {
		t.Errorf("build ran %d times, want 2 (failure evicted, then retried)", calls)
	}
}

// TestConcurrentCacheCountsParkedWaiters validates the instrument the
// guard relies on: when concurrent callers genuinely coalesce onto an
// in-flight build, the parked counter sees them.
func TestConcurrentCacheCountsParkedWaiters(t *testing.T) {
	c := newTableCache()
	tab := seqTestTable(t)
	key := cacheKey{network: "lenet5", mode: primitives.ModeCPU, samples: 2}.String()
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.get(key, func() (*lut.Table, *profile.Report, error) {
			close(entered)
			<-release
			return tab, nil, nil
		})
	}()
	<-entered
	const waiters = 3
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.get(key, func() (*lut.Table, *profile.Report, error) {
				t.Error("coalesced waiter must not build")
				return nil, nil, nil
			})
		}()
	}
	// Wait until every waiter has registered as parked (the counter is
	// incremented immediately before blocking on the ready channel), so
	// the test is deterministic even at GOMAXPROCS=1, then release the
	// build and let everyone drain.
	deadline := time.Now().Add(5 * time.Second)
	for c.parkedWaiters() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters parked before deadline", c.parkedWaiters(), waiters)
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if p := c.parkedWaiters(); p != waiters {
		t.Errorf("parked = %d, want %d", p, waiters)
	}
	if hits, misses := c.stats(); hits != waiters || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want %d/1", hits, misses, waiters)
	}
}

// TestRunSequentialMatchesPooled pins that the one-worker path is a
// pure performance choice: a Workers=1 batch and an (unclamped,
// genuinely pooled on multicore hosts) Workers=4 batch produce
// identical results and identical cache statistics.
func TestRunSequentialMatchesPooled(t *testing.T) {
	jobs := []Job{
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{1, 2}, Episodes: 60, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{3}, Episodes: 60, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeGPGPU, Seeds: []int64{1}, Episodes: 60, Samples: 2},
	}
	seq, err := Run(jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Run(jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.ProfileHits != pooled.ProfileHits || seq.ProfileMisses != pooled.ProfileMisses {
		t.Errorf("cache stats differ: seq %d/%d vs pooled %d/%d",
			seq.ProfileHits, seq.ProfileMisses, pooled.ProfileHits, pooled.ProfileMisses)
	}
	for i := range seq.Jobs {
		a, b := seq.Jobs[i], pooled.Jobs[i]
		if a.Best.Time != b.Best.Time || a.BestSeed != b.BestSeed {
			t.Errorf("job %d: best differs: %v/%d vs %v/%d", i, a.Best.Time, a.BestSeed, b.Best.Time, b.BestSeed)
		}
	}
}

// BenchmarkRunBatch is the workers=1 regression guard benchmark: it
// isolates the orchestrator overhead (pool, cache, aggregation) from
// profiling and search cost by using an instant ProfileFunc and a tiny
// episode budget, at one worker (fully sequential, the pool inline)
// and at eight (pooled on multicore hosts, clamped to
// GOMAXPROCS otherwise). benchstat against bench/baseline.txt keeps
// the sequential path from regressing behind the pooled one again.
func BenchmarkRunBatch(b *testing.B) {
	tab := seqTestTable(b)
	instant := func(ctx context.Context, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		return tab, nil, nil
	}
	jobs := []Job{
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{1, 2}, Episodes: 40, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{3, 4}, Episodes: 40, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{5, 6}, Episodes: 40, Samples: 2},
		{Network: "lenet5", Mode: primitives.ModeCPU, Seeds: []int64{7, 8}, Episodes: 40, Samples: 2},
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(jobs, Options{Workers: workers, Profile: instant}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
