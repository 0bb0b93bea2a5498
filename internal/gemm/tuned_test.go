package gemm

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
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
		ParallelCfg(m, n, k, a, b, got, Bias{}, 4, BlockConfig{}, nil)
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
	ParallelCfg(m, n, k, a, b, got, Bias{}, 1, BlockConfig{Kernel: "no-such-kernel-9x9"}, nil)
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
			ParallelCfg(m, n, k, a, b, got, Bias{}, 1, cfg, nil)
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
			ParallelCfg(m, n, k, a, b, want, Bias{}, 1, cfg, nil)
			for _, w := range []int{2, 3, 8} {
				got := append([]float32(nil), c0...)
				ParallelCfg(m, n, k, a, b, got, Bias{}, w, cfg, nil)
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
		ParallelCfg(m, n, k, a, b, cs, Bias{}, 1, cfg, nil)
		ParallelCfg(m, n, k, a, b, cw, Bias{}, w, cfg, nil)
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

// TestParallelNotSlowerThanPackedGuard guards the crossover fix for
// the regression BENCH_kernels.json caught at the 512 cube (parallel8
// behind packed, 5.71 ms vs 5.63 ms, from 8 goroutines time-slicing one
// core): 8 requested workers must never oversubscribe. It asserts the
// fan-out Parallel resolves, a pure function of the shape and
// GOMAXPROCS, for every variant: the 512 cube never runs more workers
// than GOMAXPROCS, whether its columns or its strips are split; a
// product below parallelFloorFlops runs inline; and a shared block of
// four strips wakes only two workers. Timing the two sides belongs to
// BenchmarkParallelVsPacked, which reports the ratio and gates
// nothing: on a shared host a wall-clock bound turns load into a
// failure.
func TestParallelNotSlowerThanPackedGuard(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, kn := range variants {
		_, nc := blocking(kn, 512, 512, 0, 0)
		for _, maxprocs := range []int{1, 2, 4, procs} {
			for _, n := range []int{512, nc} { // split by columns, then by strips
				w, _ := split(kn, 512, n, 512, nc, 8, maxprocs)
				if w > maxprocs || (maxprocs >= 8 && w != 8) {
					t.Errorf("%s: 512x%dx512 with 8 workers on %d procs runs %d", kn.Name, n, maxprocs, w)
				}
			}
		}
		if w, _ := split(kn, 128, 128, 128, nc, 8, 16); w != 1 {
			t.Errorf("%s: the 128 cube is below the flop floor but runs %d workers", kn.Name, w)
		}
		if w, byCols := split(kn, 4*kn.MR, nc, 2048, nc, 8, 16); w != 2 || byCols {
			t.Errorf("%s: a shared block of 4 strips runs (%d, by columns %v), want 2 strip workers", kn.Name, w, byCols)
		}
	}
}
