package gemm

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// TestParallelCfgZeroBitIdentical pins the tuner's default-path
// contract: a zero BlockConfig is byte-for-byte the default pipeline.
func TestParallelCfgZeroBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range edgeShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		want := append([]float32(nil), c0...)
		Parallel(m, n, k, a, b, want, 4)
		got := append([]float32(nil), c0...)
		ParallelCfg(m, n, k, a, b, got, 4, BlockConfig{}, nil)
		if !bitEqual(want, got) {
			t.Errorf("%dx%dx%d: zero BlockConfig not bit-identical to Parallel", m, n, k)
		}
	}
}

// TestParallelCfgKernelDegradesToDispatch pins the forged-cache
// contract: an unknown kernel name silently selects the dispatched
// kernel instead of failing.
func TestParallelCfgKernelDegradesToDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, n, k := 17, 23, 31
	a := randomSlice(rng, m*k)
	b := randomSlice(rng, k*n)
	c0 := randomSlice(rng, m*n)
	want := append([]float32(nil), c0...)
	Parallel(m, n, k, a, b, want, 1)
	got := append([]float32(nil), c0...)
	ParallelCfg(m, n, k, a, b, got, 1, BlockConfig{Kernel: "no-such-kernel-9x9"}, nil)
	if !bitEqual(want, got) {
		t.Error("unknown kernel name did not degrade to the dispatched kernel")
	}
}

// blockedConfigs exercises KC-only, NC-only and joint blocking at
// depths that straddle the edge shapes.
var blockedConfigs = []BlockConfig{
	{KC: 8},
	{NC: 16},
	{KC: 16, NC: 8},
	{KC: 5, NC: 3},             // deliberately unaligned: NC rounds up to NR
	{KC: 1 << 20, NC: 1 << 20}, // clamps to the full problem
}

// TestBlockedCfgMatchesNaive: every blocked config computes the same
// function as Naive within float32 tolerance on the edge shapes.
func TestBlockedCfgMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dims := range edgeShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		want := append([]float32(nil), c0...)
		Naive(m, n, k, a, b, want)
		for _, cfg := range blockedConfigs {
			got := append([]float32(nil), c0...)
			ParallelCfg(m, n, k, a, b, got, 1, cfg, nil)
			if d := maxDiff(want, got); d > 1e-4 {
				t.Errorf("%dx%dx%d cfg=%+v: differs from naive by %g", m, n, k, cfg, d)
			}
		}
	}
}

// TestBlockedCfgWorkerInvariance pins the measurement contract the
// tuner relies on: a blocked config is bit-identical to itself at any
// worker count (blocks are sequential barriers, strips exclusive).
func TestBlockedCfgWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, dims := range [][3]int{{65, 130, 70}, {200, 17, 129}, {64, 64, 64}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		for _, cfg := range blockedConfigs {
			want := append([]float32(nil), c0...)
			ParallelCfg(m, n, k, a, b, want, 1, cfg, nil)
			for _, w := range []int{2, 3, 8} {
				got := append([]float32(nil), c0...)
				ParallelCfg(m, n, k, a, b, got, w, cfg, nil)
				if !bitEqual(want, got) {
					t.Errorf("%dx%dx%d cfg=%+v workers=%d: not bit-identical to sequential", m, n, k, cfg, w)
				}
			}
		}
	}
}

// TestBlockedCfgMatchesNaiveProperty is the quick-check sweep over
// random shapes, configs and worker counts.
func TestBlockedCfgMatchesNaiveProperty(t *testing.T) {
	f := func(mm, nn, kk, kc, nc, workers uint8, seed int64) bool {
		m, n, k := int(mm%40)+1, int(nn%40)+1, int(kk%40)+1
		cfg := BlockConfig{KC: int(kc%24) + 1, NC: int(nc%24) + 1}
		w := int(workers%9) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		cn := append([]float32(nil), c0...)
		cs := append([]float32(nil), c0...)
		cw := append([]float32(nil), c0...)
		Naive(m, n, k, a, b, cn)
		ParallelCfg(m, n, k, a, b, cs, 1, cfg, nil)
		ParallelCfg(m, n, k, a, b, cw, w, cfg, nil)
		return maxDiff(cn, cs) <= 1e-4 && bitEqual(cs, cw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestKernelShape: registered variants report their geometry; unknown
// names report ok=false.
func TestKernelShape(t *testing.T) {
	for _, name := range KernelVariants() {
		mr, nr, ok := KernelShape(name)
		if !ok || mr <= 0 || nr <= 0 {
			t.Errorf("KernelShape(%q) = %d, %d, %v", name, mr, nr, ok)
		}
	}
	if _, _, ok := KernelShape("no-such-kernel"); ok {
		t.Error("KernelShape accepted an unknown name")
	}
}

// TestEffectiveWorkers is the unit guard for the parallel-crossover
// regression fix: fan-out never exceeds GOMAXPROCS (8 goroutines on a
// 1-CPU host measured slower than the sequential packed path at 512),
// never exceeds one worker per minStripsPerWorker strips, and a
// problem below the flop floor always runs inline.
func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		name                            string
		m, n, k, strips, workers, procs int
		want                            int
	}{
		{"clamp to GOMAXPROCS (the 512 regression)", 512, 512, 512, 64, 8, 1, 1},
		{"clamp to GOMAXPROCS partial", 512, 512, 512, 64, 8, 4, 4},
		{"unclamped on a big host", 512, 512, 512, 64, 8, 16, 8},
		{"below flop floor runs inline", 128, 128, 128, 16, 8, 16, 1},
		{"strip floor shrinks thin fan-outs", 512, 512, 512, 4, 8, 16, 2},
		{"strip floor never reaches zero", 512, 512, 512, 1, 8, 16, 1},
		{"workers already sequential", 512, 512, 512, 64, 1, 16, 1},
	}
	for _, c := range cases {
		if got := effectiveWorkers(c.m, c.n, c.k, c.strips, c.workers, c.procs); got != c.want {
			t.Errorf("%s: effectiveWorkers(%d,%d,%d,strips=%d,workers=%d,procs=%d) = %d, want %d",
				c.name, c.m, c.n, c.k, c.strips, c.workers, c.procs, got, c.want)
		}
	}
}

// TestParallelNotSlowerThanPackedGuard is the benchmark guard for the
// crossover satellite: at the 512 cube where BENCH_kernels.json caught
// parallel8 behind packed (5.71 ms vs 5.63 ms), Parallel with 8
// requested workers must now stay within noise of one worker — on an
// over-subscribed host the clamp makes it the identical code path.
// Wall-clock comparisons on a shared host are noisy, so the two sides
// are timed in alternating rounds, each round swapping which runs
// first, and their medians compared: a burst of load from a neighbour
// slows one or two rounds of both sides, not the median of one. The
// bound is generous and the test skips under -short.
func TestParallelNotSlowerThanPackedGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison: skipped under -short")
	}
	const size, rounds = 512, 9
	rng := rand.New(rand.NewSource(31))
	a := randomSlice(rng, size*size)
	b := randomSlice(rng, size*size)
	c := make([]float32, size*size)
	timeOne := func(workers int) time.Duration {
		start := time.Now()
		Parallel(size, size, size, a, b, c, workers)
		return time.Since(start)
	}
	timeOne(1) // warm caches and the worker pool
	timeOne(8)
	var packed, parallel []time.Duration
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			packed = append(packed, timeOne(1))
			parallel = append(parallel, timeOne(8))
		} else {
			parallel = append(parallel, timeOne(8))
			packed = append(packed, timeOne(1))
		}
	}
	slices.Sort(packed)
	slices.Sort(parallel)
	pk, pl := packed[rounds/2], parallel[rounds/2]
	t.Logf("GOMAXPROCS=%d median of %d rounds: packed=%v parallel8=%v", runtime.GOMAXPROCS(0), rounds, pk, pl)
	if float64(pl) > 1.25*float64(pk) {
		t.Errorf("parallel8/%d = %v is more than 25%% slower than packed = %v (medians of %d alternating rounds)", size, pl, pk, rounds)
	}
}
