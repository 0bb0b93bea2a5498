package gemm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// benchGemm measures one GEMM backend at the given cube size.
func benchGemm(b *testing.B, size int, f func(m, n, k int, a, bb, c []float32)) {
	rng := rand.New(rand.NewSource(1))
	a := randomSlice(rng, size*size)
	bb := randomSlice(rng, size*size)
	c := make([]float32, size*size)
	b.SetBytes(int64(2 * size * size * size * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(size, size, size, a, bb, c)
	}
}

// packed is the 1-worker packed GEMM the "packed/N" rows measure.
func packed(m, n, k int, a, b, c []float32) { Parallel(m, n, k, a, b, c, 1) }

// BenchmarkGEMMBackends compares the GEMM backends at a 512 cube and at
// a conv-lowering-like 128 cube. Sub-benchmark names use "/" (not
// "-<size>"): benchstat and the stale-baseline guard in
// scripts/bench.sh strip a trailing -<GOMAXPROCS> suffix, so a size
// there would be read as a CPU count.
func BenchmarkGEMMBackends(b *testing.B) {
	b.Logf("active kernel: %s", ActiveKernel())
	for _, size := range []int{128, 512} {
		b.Run(fmt.Sprintf("naive/%d", size), func(b *testing.B) { benchGemm(b, size, Naive) })
		b.Run(fmt.Sprintf("packed/%d", size), func(b *testing.B) { benchGemm(b, size, packed) })
		b.Run(fmt.Sprintf("parallel8/%d", size), func(b *testing.B) {
			benchGemm(b, size, func(m, n, k int, a, bb, c []float32) { Parallel(m, n, k, a, bb, c, 8) })
		})
	}
}

// BenchmarkGEMMKernelVariants runs the packed path once per registered
// micro-kernel (AVX2 vs SSE vs pure-Go on amd64), quantifying what the
// runtime dispatch buys on this host.
func BenchmarkGEMMKernelVariants(b *testing.B) {
	for _, kn := range variants {
		kn := kn
		for _, size := range []int{128, 512} {
			b.Run(fmt.Sprintf("%s/%d", kn.Name, size), func(b *testing.B) {
				benchGemm(b, size, func(m, n, k int, a, bb, c []float32) {
					blockedKernel(kn, m, n, k, a, bb, nil, c, Bias{}, 1, 0, 0, nil)
				})
			})
		}
	}
}

// BenchmarkGEMMParallelCrossover brackets parallelFloorFlops: sizes
// around the measured crossover where fanning out starts beating the
// inline packed path. parallel8 at 128 and 160 runs inline (below the
// floor); 192 and 256 fan out.
func BenchmarkGEMMParallelCrossover(b *testing.B) {
	for _, size := range []int{128, 160, 192, 256} {
		b.Run(fmt.Sprintf("packed/%d", size), func(b *testing.B) { benchGemm(b, size, packed) })
		b.Run(fmt.Sprintf("parallel8/%d", size), func(b *testing.B) {
			benchGemm(b, size, func(m, n, k int, a, bb, c []float32) { Parallel(m, n, k, a, bb, c, 8) })
		})
	}
}

// BenchmarkParallelVsPacked times Parallel at the 512 cube with 8
// requested workers against one worker, in alternating rounds that swap
// which side runs first, and reports the ratio of their medians
// (parallel8/packed). Report only: the fan-out rules that keep the
// ratio near 1 on a small host are asserted deterministically by
// TestParallelNotSlowerThanPackedGuard.
func BenchmarkParallelVsPacked(b *testing.B) {
	const size = 512
	rng := rand.New(rand.NewSource(31))
	a, bb, c := randomSlice(rng, size*size), randomSlice(rng, size*size), make([]float32, size*size)
	timeOne := func(workers int) time.Duration {
		start := time.Now()
		Parallel(size, size, size, a, bb, c, workers)
		return time.Since(start)
	}
	timeOne(1) // warm caches and the worker pool
	timeOne(8)
	packed, parallel := make([]time.Duration, 0, b.N), make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			packed = append(packed, timeOne(1))
			parallel = append(parallel, timeOne(8))
		} else {
			parallel = append(parallel, timeOne(8))
			packed = append(packed, timeOne(1))
		}
	}
	slices.Sort(packed)
	slices.Sort(parallel)
	pk, pl := packed[b.N/2], parallel[b.N/2]
	b.ReportMetric(float64(pk.Nanoseconds()), "packed-ns")
	b.ReportMetric(float64(pl.Nanoseconds()), "parallel8-ns")
	b.ReportMetric(float64(pl)/float64(pk), "parallel8/packed")
}

// pointwiseShapes are the (m, n, k) products the frozen MobileNet-v1
// plans hand the packed GEMM: 1x1 convs lowered by im2col or kn2row
// (OC x HW x C, B the input sample read in place), one im2row product
// (HW x OC x C, B the transposed weights), and the widest -100 layer.
var pointwiseShapes = [][3]int{
	{32, 3136, 16},
	{32, 3136, 32},
	{64, 784, 32},
	{128, 196, 128},
	{256, 49, 256},
	{196, 128, 64},
	{1024, 49, 1024},
}

// BenchmarkGEMMPointwise reports the packed GEMM's GFLOP/s at one
// worker, with its scratch supplied, on the pointwise shapes: the
// products whose A strips and B panels it reads in place.
func BenchmarkGEMMPointwise(b *testing.B) {
	for _, d := range pointwiseShapes {
		m, n, k := d[0], d[1], d[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a, bb, c := randomSlice(rng, m*k), randomSlice(rng, k*n), make([]float32, m*n)
			scratch := make([]float32, ScratchLen(m, n, k, 1, BlockConfig{}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ParallelCfg(m, n, k, a, bb, c, Bias{}, 1, BlockConfig{}, scratch)
			}
			b.ReportMetric(2*float64(m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
