package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// ncOnlyBitIdentical reports whether ParallelCfg with only NC set, under
// every registered kernel at 1 and 2 workers, reproduces Parallel's
// bits on one random m x n x k product. A mismatch is described in the
// returned string.
func ncOnlyBitIdentical(m, n, k, nc int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	a := randomSlice(rng, m*k)
	b := randomSlice(rng, k*n)
	c0 := randomSlice(rng, m*n)
	want := append([]float32(nil), c0...)
	Parallel(m, n, k, a, b, want, 1)
	for _, name := range KernelVariants() {
		for _, w := range []int{1, 2} {
			got := append([]float32(nil), c0...)
			ParallelCfg(m, n, k, a, b, got, w, BlockConfig{Kernel: name, NC: nc}, nil)
			if !bitEqual(want, got) {
				return fmt.Sprintf("%s at %d workers", name, w)
			}
		}
	}
	return ""
}

// TestNCOnlyBlockingBitIdentical pins what the default panelCols bound
// relies on: splitting B into n-blocks, at any width, keeps every
// output element's full-k register sum, so it changes no bit of C.
func TestNCOnlyBlockingBitIdentical(t *testing.T) {
	for i, dims := range edgeShapes {
		m, n, k := dims[0], dims[1], dims[2]
		for _, nc := range []int{1, 3, 8, 16, 40} {
			if bad := ncOnlyBitIdentical(m, n, k, nc, int64(30+i)); bad != "" {
				t.Errorf("%dx%dx%d NC=%d under %s: not bit-identical to Parallel", m, n, k, nc, bad)
			}
		}
	}
	// Wider than one default block, so Parallel itself splits n.
	if bad := ncOnlyBitIdentical(9, 3*panelCols+5, 27, 100, 7); bad != "" {
		t.Errorf("wide product under %s: not bit-identical to Parallel", bad)
	}
}

// FuzzGEMMNCBlockingBitIdentical fuzzes shapes and NC widths through
// the same NC-only check.
func FuzzGEMMNCBlockingBitIdentical(f *testing.F) {
	f.Add(uint8(9), uint8(200), uint8(27), uint8(24), int64(1))
	f.Add(uint8(1), uint8(7), uint8(1), uint8(1), int64(2))
	f.Add(uint8(17), uint8(33), uint8(40), uint8(5), int64(3))
	f.Fuzz(func(t *testing.T, mm, nn, kk, nc uint8, seed int64) {
		m, n, k := int(mm%40)+1, int(nn)+1, int(kk%40)+1
		if bad := ncOnlyBitIdentical(m, n, k, int(nc%64)+1, seed); bad != "" {
			t.Fatalf("%dx%dx%d NC=%d under %s: not bit-identical to Parallel", m, n, k, int(nc%64)+1, bad)
		}
	})
}

// matrixPacker is a Packer over a plain row-major B, for checking
// ParallelPacker against ParallelCfg.
type matrixPacker struct {
	n int
	b []float32
}

func (p matrixPacker) PackB(p0, kcb, j0, ncb, nr int, dst []float32) {
	packBBlock(p.n, p0, kcb, j0, ncb, nr, p.b, dst)
}

// TestPackerMatchesMatrixRagged: ParallelPacker (every panel packed)
// must reproduce ParallelCfg (full panels read in place, the ragged
// last one packed) bit for bit, under every variant, on shapes whose
// m and n leave 1 to 7 rows and columns past the last full tile, with
// and without KC/NC blocking, at 1 and 4 workers. The wide shapes are
// above the flop floor, so at 4 workers they split by columns (default
// and KC/NC configs) or by strips of one shared block (NC covering n).
func TestPackerMatchesMatrixRagged(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(44))
	var shapes [][3]int
	for r := 1; r <= 7; r++ {
		for _, k := range []int{1, 8, 27} {
			shapes = append(shapes, [3]int{16 + r, 16 + r, k})
		}
	}
	shapes = append(shapes, [3]int{167, 4*panelCols + 1, 27})
	for _, dims := range shapes {
		m, n, k := dims[0], dims[1], dims[2]
		a := specialSlice(rng, m*k)
		b := specialSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		for _, name := range KernelVariants() {
			for _, cfg := range []BlockConfig{{Kernel: name}, {Kernel: name, KC: 5, NC: 16}, {Kernel: name, NC: 1 << 20}} {
				for _, w := range []int{1, 4} {
					want := append([]float32(nil), c0...)
					ParallelCfg(m, n, k, a, b, want, w, cfg, nanSlice(ScratchLen(m, n, k, w, cfg)))
					got := append([]float32(nil), c0...)
					ParallelPacker(m, n, k, a, matrixPacker{n, b}, got, w, cfg, nanSlice(ScratchLen(m, n, k, w, cfg)))
					if !sameBits(want, got) {
						t.Errorf("%dx%dx%d cfg=%+v workers=%d: ParallelPacker differs from ParallelCfg", m, n, k, cfg, w)
					}
				}
			}
		}
	}
}

// nanSlice returns n NaNs: scratch that a kernel relying on zeroed
// memory would leak into its result.
func nanSlice(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

// TestScratchIsWorkspaceOnly runs ParallelCfg and ParallelPacker with
// nil, NaN-filled and oversized scratch under plain, KC-, NC- and
// worker-overriding configs: every form must reproduce the nil-scratch
// bits.
func TestScratchIsWorkspaceOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfgs := append([]BlockConfig{{}, {Workers: 3}}, blockedConfigs...)
	for _, dims := range [][3]int{{17, 23, 31}, {65, 130, 70}, {9, panelCols + 9, 27}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		for _, cfg := range cfgs {
			for _, w := range []int{1, 2} {
				want := append([]float32(nil), c0...)
				ParallelCfg(m, n, k, a, b, want, w, cfg, nil)
				size := ScratchLen(m, n, k, w, cfg)
				for _, scratch := range [][]float32{nanSlice(size), nanSlice(size + 37)} {
					got := append([]float32(nil), c0...)
					ParallelCfg(m, n, k, a, b, got, w, cfg, scratch)
					if !bitEqual(want, got) {
						t.Errorf("%dx%dx%d cfg=%+v workers=%d scratch %d: ParallelCfg differs from nil scratch", m, n, k, cfg, w, len(scratch))
					}
					got = append(got[:0], c0...)
					ParallelPacker(m, n, k, a, matrixPacker{n, b}, got, w, cfg, nanSlice(len(scratch)))
					if !bitEqual(want, got) {
						t.Errorf("%dx%dx%d cfg=%+v workers=%d scratch %d: ParallelPacker differs from ParallelCfg", m, n, k, cfg, w, len(scratch))
					}
				}
			}
		}
	}
}

// TestShortScratchPanics: scratch one element short of ScratchLen is
// rejected the way a short C is.
func TestShortScratchPanics(t *testing.T) {
	m, n, k := 17, 23, 31
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "scratch") {
			t.Errorf("short scratch: recovered %v, want a scratch panic", r)
		}
	}()
	ParallelCfg(m, n, k, make([]float32, m*k), make([]float32, k*n), make([]float32, m*n), 1, BlockConfig{},
		make([]float32, ScratchLen(m, n, k, 1, BlockConfig{})-1))
}

// TestScratchLenFollowsNamedKernel: the size follows the MR and NR of
// the variant cfg.Kernel names, not of the dispatched one, and grows
// with the strip fan-out.
func TestScratchLenFollowsNamedKernel(t *testing.T) {
	m, n, k := 64, 100, 27
	for _, name := range KernelVariants() {
		mr, nr, _ := KernelShape(name)
		nc := (n + nr - 1) / nr * nr
		want := k*nc + k*mr + mr*nr
		if got := ScratchLen(m, n, k, 1, BlockConfig{Kernel: name}); got != want {
			t.Errorf("%s: ScratchLen = %d, want %d", name, got, want)
		}
	}
	if ScratchLen(0, n, k, 1, BlockConfig{}) != 0 {
		t.Error("an empty product should need no scratch")
	}
	big := 256
	if one, four := ScratchLen(big, big, big, 1, BlockConfig{}), ScratchLen(big, big, big, 4, BlockConfig{}); four <= one {
		t.Errorf("4 workers need %d elements, no more than 1 worker's %d", four, one)
	}
}

// TestParallelCfgScratchAllocatesNothing: one worker given its scratch
// runs without a single heap allocation — no pack buffer, A strip or
// register tile of its own.
func TestParallelCfgScratchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, n, k := 33, panelCols+40, 29
	a := randomSlice(rng, m*k)
	b := randomSlice(rng, k*n)
	c := make([]float32, m*n)
	for _, cfg := range []BlockConfig{{}, {KC: 8, NC: 16}} {
		scratch := make([]float32, ScratchLen(m, n, k, 1, cfg))
		if allocs := testing.AllocsPerRun(20, func() {
			ParallelCfg(m, n, k, a, b, c, 1, cfg, scratch)
		}); allocs != 0 {
			t.Errorf("cfg=%+v: %v allocations per call, want 0", cfg, allocs)
		}
	}
}

// TestSplit pins how blockedKernel shares a product: by column runs
// when B spans several n-blocks, by strips of the one shared block
// otherwise, and inline below the flop floor either way.
func TestSplit(t *testing.T) {
	kn := kernelByName("go-4x8")
	cases := []struct {
		name                  string
		m, n, k, nc, w, procs int
		wantWorkers           int
		wantByCols            bool
	}{
		{"several n-blocks split by columns", 32, 12544, 27, 256, 4, 8, 4, true},
		{"columns clamp to GOMAXPROCS", 32, 12544, 27, 256, 4, 2, 2, true},
		{"one column panel per worker at most", 512, 16, 2048, 8, 8, 8, 2, true},
		{"one n-block splits strips", 512, 256, 512, 256, 8, 8, 8, false},
		{"below the flop floor runs inline", 8, 12544, 27, 256, 4, 8, 1, false},
		{"one worker stays inline", 32, 12544, 27, 256, 1, 8, 1, false},
	}
	for _, c := range cases {
		w, byCols := split(kn, c.m, c.n, c.k, c.nc, c.w, c.procs)
		if w != c.wantWorkers || byCols != c.wantByCols {
			t.Errorf("%s: split = (%d, %v), want (%d, %v)", c.name, w, byCols, c.wantWorkers, c.wantByCols)
		}
	}
}

// TestColumnSplitBitIdentical runs products above the flop floor and
// wider than one n-block — the shape of mobilenet's first conv among
// them — at 2 and 3 workers, where each worker packs and multiplies its
// own columns, under the default, NC- and KC-blocked configs, from
// NaN-filled scratch, through both ParallelCfg and ParallelPacker. Each
// must reproduce the 1-worker bits.
func TestColumnSplitBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(43))
	for _, dims := range [][3]int{{32, 12544, 27}, {9, 3*panelCols + 5, 700}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		for _, cfg := range []BlockConfig{{}, {NC: 100}, {KC: 16, NC: 64}} {
			want := append([]float32(nil), c0...)
			ParallelCfg(m, n, k, a, b, want, 1, cfg, nil)
			for _, w := range []int{2, 3} {
				kn := kernelByName(cfg.Kernel)
				_, nc := blocking(kn, n, k, cfg.KC, cfg.NC)
				if got, byCols := split(kn, m, n, k, nc, w, w); got != w || !byCols {
					t.Fatalf("%dx%dx%d cfg=%+v: split gives (%d, %v), not %d column runs", m, n, k, cfg, got, byCols, w)
				}
				got := append([]float32(nil), c0...)
				ParallelCfg(m, n, k, a, b, got, w, cfg, nanSlice(ScratchLen(m, n, k, w, cfg)))
				if !bitEqual(want, got) {
					t.Errorf("%dx%dx%d cfg=%+v workers=%d: ParallelCfg differs from 1 worker", m, n, k, cfg, w)
				}
				got = append(got[:0], c0...)
				ParallelPacker(m, n, k, a, matrixPacker{n, b}, got, w, cfg, nanSlice(ScratchLen(m, n, k, w, cfg)))
				if !bitEqual(want, got) {
					t.Errorf("%dx%dx%d cfg=%+v workers=%d: ParallelPacker differs from 1 worker", m, n, k, cfg, w)
				}
			}
		}
	}
}
