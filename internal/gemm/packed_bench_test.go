package gemm

import (
	"fmt"
	"math/rand"
	"testing"
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

// BenchmarkGEMMBackends compares the GEMM backends at the 512-cube the
// ISSUE targets and at a conv-lowering-like 128 cube. Sub-benchmark
// names use "/" (not "-<size>") so the bench.sh JSON reducer, which
// strips the trailing -GOMAXPROCS suffix, never confuses a size for a
// CPU count.
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
					blockedKernel(kn, m, n, k, a, bb, nil, c, 1, 0, 0, nil)
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
