package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bitEqual reports whether two slices carry identical IEEE-754 bit
// patterns (so +0 != -0 and NaN payloads must match exactly).
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// edgeShapes are dimensions chosen to stress the tile/panel boundaries
// of every dispatched geometry: below one tile, exactly one tile, odd
// sizes straddling the 4x8, 8x8 and 8x16 register tiles, and empty
// reductions.
var edgeShapes = [][3]int{
	{1, 1, 1},
	{1, 1, 0}, // k=0: C must be left untouched
	{4, 8, 16},
	{8, 8, 8},
	{8, 16, 8},
	{3, 7, 5},
	{5, 9, 3},
	{4, 8, 1},
	{9, 17, 5},
	{17, 23, 31},
	{9, 31, 7},
	{16, 49, 33},
	{64, 64, 64},
	{65, 130, 70},
	{200, 17, 129},
	{1, 100, 100},
	{100, 1, 100},
	{100, 100, 1},
}

func TestPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range edgeShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c1 := randomSlice(rng, m*n) // non-zero C: both paths must accumulate
		c2 := append([]float32(nil), c1...)
		Naive(m, n, k, a, b, c1)
		Parallel(m, n, k, a, b, c2, 1)
		if d := maxDiff(c1, c2); d > 1e-4 {
			t.Errorf("%dx%dx%d: packed differs from naive by %g", m, n, k, d)
		}
	}
}

// TestParallelBitIdenticalAcrossWorkers pins the tentpole contract:
// every worker count produces byte-for-byte the same output as the
// sequential packed path.
func TestParallelBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range edgeShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		want := append([]float32(nil), c0...)
		Parallel(m, n, k, a, b, want, 1)
		for _, w := range []int{1, 2, 3, 4, 7, 8, 16, 100} {
			got := append([]float32(nil), c0...)
			Parallel(m, n, k, a, b, got, w)
			if !bitEqual(want, got) {
				t.Errorf("%dx%dx%d workers=%d: output not bit-identical to sequential", m, n, k, w)
			}
		}
	}
}

func TestParallelKZeroLeavesCUntouched(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	want := append([]float32(nil), c...)
	Parallel(2, 2, 0, nil, nil, c, 4)
	if !bitEqual(c, want) {
		t.Errorf("k=0 modified C: got %v, want %v", c, want)
	}
}

// Per-variant micro-kernel and whole-GEMM bit-equality live in
// dispatch_test.go (TestMicroKernelVariantsMatchGeneric,
// TestDispatchVariantsBitEqual).

// TestParallelMatchesNaiveProperty is the quick-check sweep of the
// packed kernels against Naive, also asserting worker-count
// bit-invariance on every drawn shape.
func TestParallelMatchesNaiveProperty(t *testing.T) {
	f := func(mm, nn, kk uint8, workers uint8, seed int64) bool {
		m, n, k := int(mm%33)+1, int(nn%33)+1, int(kk%33) // k may be 0
		w := int(workers%9) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		cn := append([]float32(nil), c0...)
		cs := append([]float32(nil), c0...)
		cw := append([]float32(nil), c0...)
		Naive(m, n, k, a, b, cn)
		Parallel(m, n, k, a, b, cs, 1)
		Parallel(m, n, k, a, b, cw, w)
		return maxDiff(cn, cs) <= 1e-4 && bitEqual(cs, cw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// FuzzGEMMParallelMatchesNaive fuzzes shapes and worker counts,
// asserting the 1-worker packed path stays within float32 tolerance of
// Naive and that every worker count is bit-identical to it.
func FuzzGEMMParallelMatchesNaive(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(16), uint8(3), int64(1))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(8), int64(2))
	f.Add(uint8(33), uint8(9), uint8(5), uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, mm, nn, kk, workers uint8, seed int64) {
		m, n, k := int(mm%40)+1, int(nn%40)+1, int(kk%40)
		w := int(workers%16) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		cn := append([]float32(nil), c0...)
		cs := append([]float32(nil), c0...)
		Naive(m, n, k, a, b, cn)
		Parallel(m, n, k, a, b, cs, 1)
		if d := maxDiff(cn, cs); d > 1e-4 {
			t.Fatalf("%dx%dx%d: packed differs from naive by %g", m, n, k, d)
		}
		cw := append([]float32(nil), c0...)
		Parallel(m, n, k, a, b, cw, w)
		if !bitEqual(cs, cw) {
			t.Fatalf("%dx%dx%d workers=%d: not bit-identical to sequential", m, n, k, w)
		}
	})
}

func TestPackedDimCheckPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"short A", func() { Parallel(2, 2, 2, make([]float32, 3), make([]float32, 4), make([]float32, 4), 1) }},
		{"short B", func() { Parallel(2, 2, 2, make([]float32, 4), make([]float32, 3), make([]float32, 4), 1) }},
		{"short C", func() { Parallel(2, 2, 2, make([]float32, 4), make([]float32, 4), make([]float32, 3), 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on short slice")
				}
			}()
			tc.call()
		})
	}
}

// TestPackBLayout pins the panel layout the micro-kernels assume, at
// every dispatched panel width.
func TestPackBLayout(t *testing.T) {
	for _, nr := range []int{4, 8, 16} {
		k, n := 2, nr+2 // one full panel plus a ragged 2-wide edge
		b := make([]float32, k*n)
		for i := range b {
			b[i] = float32(i + 1)
		}
		dst := make([]float32, k*2*nr)
		packBBlock(n, 0, k, 0, n, nr, b, dst)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				pj, jj := j/nr, j%nr
				got := dst[pj*k*nr+p*nr+jj]
				if got != b[p*n+j] {
					t.Errorf("nr=%d panel[%d] p=%d jj=%d = %v, want %v", nr, pj, p, jj, got, b[p*n+j])
				}
			}
			for jj := n % nr; jj < nr; jj++ {
				if got := dst[(n/nr)*k*nr+p*nr+jj]; got != 0 {
					t.Errorf("nr=%d ragged pad p=%d jj=%d = %v, want 0", nr, p, jj, got)
				}
			}
		}
	}
}

func TestPackStripALayout(t *testing.T) {
	for _, mr := range []int{4, 8} {
		m, k := mr+2, 3 // second strip is ragged: two rows then zero pad
		a := make([]float32, m*k)
		for i := range a {
			a[i] = float32(i + 1)
		}
		dst := make([]float32, k*mr)
		packStripABlock(m, k, mr, mr, 0, k, a, dst)
		for p := 0; p < k; p++ {
			for ii := 0; ii < mr; ii++ {
				want := float32(0)
				if mr+ii < m {
					want = a[(mr+ii)*k+p]
				}
				if got := dst[p*mr+ii]; got != want {
					t.Errorf("mr=%d dst[p=%d ii=%d] = %v, want %v", mr, p, ii, got, want)
				}
			}
		}
	}
}

func ExampleParallel() {
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	Parallel(2, 2, 2, a, b, c, 4)
	fmt.Println(c)
	// Output: [19 22 43 50]
}
