package gemm

import (
	"fmt"
	"math/rand"
	"testing"
)

// fillStart is the test's own bias fill, written apart from Bias.fill:
// row i of the m x n matrix c set to v[i], or every row to v when
// perCol is set. It is what the kernels did before the GEMM took the
// bias: fill C, then accumulate into it.
func fillStart(m, n int, v []float32, perCol bool, c []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if perCol {
				c[i*n+j] = v[j]
			} else {
				c[i*n+j] = v[i]
			}
		}
	}
}

// checkBiasStart runs one shape through every registered variant and
// the dispatched kernel, under cfg, at 1 and 8 workers, with B as a
// matrix and through a Packer, for a row and a column bias. Each call
// starts from a C full of stale values and must give the bits of
// filling C with the bias and then making the zero-Bias call.
func checkBiasStart(t *testing.T, m, n, k int, cfg BlockConfig, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, b, stale := specialSlice(rng, m*k), specialSlice(rng, k*n), specialSlice(rng, m*n)
	names := append(KernelVariants(), "")
	for _, perCol := range []bool{false, true} {
		bias := Bias{PerColumn: perCol}
		bias.V = specialSlice(rng, bias.size(m, n))
		for _, name := range names {
			cfg := cfg
			cfg.Kernel = name
			for _, w := range []int{1, 8} {
				want := make([]float32, m*n)
				fillStart(m, n, bias.V, perCol, want)
				ParallelCfg(m, n, k, a, b, want, Bias{}, w, cfg, nil)
				what := fmt.Sprintf("%dx%dx%d cfg %+v workers %d per-column %v", m, n, k, cfg, w, perCol)
				got := append([]float32(nil), stale...)
				ParallelCfg(m, n, k, a, b, got, bias, w, cfg, nil)
				if !bitEqual(want, got) {
					t.Fatalf("%s: bias start differs from filling C first", what)
				}
				got = append(got[:0], stale...)
				ParallelPacker(m, n, k, a, matrixPacker{n, b}, got, bias, w, cfg, nil)
				if !bitEqual(want, got) {
					t.Fatalf("%s: bias start through a Packer differs from filling C first", what)
				}
			}
		}
	}
}

// biasShapes are the bias-start cases: ragged m and n against the 4x8,
// 8x8 and 8x16 tiles, an empty reduction (C must come out as the bias
// itself), two shapes past parallelFloorFlops, one split by strips of a
// shared block (n <= 256) and one by column runs, so 8 workers really
// fan out where GOMAXPROCS allows, and whole 8x16 tiles only (a column
// bias read 16 wide, the last tile ending at the bias's last value).
var biasShapes = [][3]int{{1, 1, 1}, {3, 7, 5}, {9, 17, 0}, {13, 19, 21}, {17, 23, 31}, {203, 131, 161}, {67, 300, 211}, {16, 32, 9}}

// TestBiasStartBitEqual is the tile-store hook's contract: a GEMM that
// starts each element from a row or column bias equals filling C with
// the bias and accumulating into it, bit for bit, under every variant,
// the default config and a KC-blocked tuned one (the bias joins the
// first k-block only).
func TestBiasStartBitEqual(t *testing.T) {
	for i, s := range biasShapes {
		cfgs := []BlockConfig{{}, {KC: 7, NC: 24}}
		if 2*s[0]*s[1]*s[2] >= parallelFloorFlops {
			cfgs = []BlockConfig{{KC: 40}} // the fan-out shapes: one config keeps them quick
		}
		for _, cfg := range cfgs {
			checkBiasStart(t, s[0], s[1], s[2], cfg, int64(60+i))
		}
	}
}

// TestBiasStartSIMDDisabled runs the bias-start cases with dispatch
// re-run under QSDNN_DISABLE_SIMD=1, so the dispatched kernel ("" in
// the config) is the pure-Go fallback.
func TestBiasStartSIMDDisabled(t *testing.T) {
	t.Cleanup(initKernel)
	t.Setenv("QSDNN_DISABLE_SIMD", "1")
	initKernel()
	if ActiveKernel() != fallbackKernel.Name {
		t.Fatalf("ActiveKernel() = %q with QSDNN_DISABLE_SIMD=1", ActiveKernel())
	}
	for i, s := range biasShapes[:5] {
		checkBiasStart(t, s[0], s[1], s[2], BlockConfig{KC: 4}, int64(70+i))
	}
}

// FuzzBiasStartBitEqual fuzzes shapes and KC depths through
// checkBiasStart.
func FuzzBiasStartBitEqual(f *testing.F) {
	f.Add(uint8(9), uint8(17), uint8(5), uint8(0), int64(1))
	f.Add(uint8(13), uint8(6), uint8(33), uint8(8), int64(2))
	f.Add(uint8(1), uint8(39), uint8(0), uint8(0), int64(3))
	f.Add(uint8(31), uint8(9), uint8(18), uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, mm, nn, kk, kc uint8, seed int64) {
		m, n, k := int(mm%40)+1, int(nn%40)+1, int(kk%40)
		checkBiasStart(t, m, n, k, BlockConfig{KC: int(kc % 12)}, seed)
	})
}
