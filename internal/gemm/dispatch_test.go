package gemm

import (
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// TestMicroKernelVariantsMatchGeneric pins every dispatched
// micro-kernel against the shape-generic pure-Go reduction, bit for
// bit, tile for tile — including k=0 (tile must be zeroed) and k
// values that would expose accumulation-order or FMA differences.
func TestMicroKernelVariantsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, kn := range variants {
		for _, k := range []int{0, 1, 2, 3, 7, 64, 513} {
			ap := randomSlice(rng, max(1, k*kn.MR))
			bp := randomSlice(rng, max(1, k*kn.NR))
			got := make([]float32, kn.MR*kn.NR)
			want := make([]float32, kn.MR*kn.NR)
			kn.micro(k, ap, bp, got)
			microTileGeneric(k, kn.MR, kn.NR, ap, bp, want)
			if !bitEqual(got, want) {
				t.Errorf("%s k=%d: micro-kernel not bit-identical to generic Go:\n got %v\nwant %v", kn.Name, k, got, want)
			}
		}
	}
}

// TestDispatchVariantsBitEqual is the cross-ISA contract: for every
// registered kernel — SSE, AVX2 or NEON, whichever this host has —
// the whole packed GEMM is byte-identical to the pure-Go fallback on
// every edge shape (1x1, k=0, dims not multiples of either MR or NR)
// and at every worker count. Per-element rounding never depends on
// the tile geometry, so 4x8 and 8x8 kernels must agree exactly.
func TestDispatchVariantsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dims := range edgeShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		want := append([]float32(nil), c0...)
		blockedKernel(fallbackKernel, m, n, k, a, b, nil, want, 1, 0, 0, nil)
		for _, kn := range variants {
			for _, w := range []int{1, 3, 8} {
				got := append([]float32(nil), c0...)
				blockedKernel(kn, m, n, k, a, b, nil, got, w, 0, 0, nil)
				if !bitEqual(want, got) {
					t.Errorf("%s %dx%dx%d workers=%d: not bit-identical to pure-Go fallback", kn.Name, m, n, k, w)
				}
			}
		}
	}
}

// FuzzDispatchKernelsBitEqual fuzzes shapes, asserting every variant
// stays bit-identical to the pure-Go fallback.
func FuzzDispatchKernelsBitEqual(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(9), uint8(17), uint8(5), int64(2))
	f.Add(uint8(8), uint8(8), uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, mm, nn, kk uint8, seed int64) {
		m, n, k := int(mm%40)+1, int(nn%40)+1, int(kk%40)
		rng := rand.New(rand.NewSource(seed))
		a := randomSlice(rng, m*k)
		b := randomSlice(rng, k*n)
		c0 := randomSlice(rng, m*n)
		want := append([]float32(nil), c0...)
		blockedKernel(fallbackKernel, m, n, k, a, b, nil, want, 1, 0, 0, nil)
		for _, kn := range variants {
			got := append([]float32(nil), c0...)
			blockedKernel(kn, m, n, k, a, b, nil, got, 4, 0, 0, nil)
			if !bitEqual(want, got) {
				t.Fatalf("%s %dx%dx%d: not bit-identical to pure-Go fallback", kn.Name, m, n, k)
			}
		}
	})
}

// TestKernelRegistry pins the dispatch inventory: the fallback is
// always last, the architecture's baseline kernel is present, and the
// active kernel is one of the registered variants.
func TestKernelRegistry(t *testing.T) {
	names := KernelVariants()
	if len(names) == 0 || names[len(names)-1] != "go-4x8" {
		t.Fatalf("variants = %v, want pure-Go fallback last", names)
	}
	if runtime.GOARCH == "amd64" && !slices.Contains(names, "sse-4x8") {
		t.Errorf("amd64 variants = %v, want sse-4x8 registered", names)
	}
	if runtime.GOARCH == "arm64" && !slices.Contains(names, "neon-8x8") {
		t.Errorf("arm64 variants = %v, want neon-8x8 registered", names)
	}
	if !slices.Contains(names, ActiveKernel()) {
		t.Errorf("active kernel %q not in variants %v", ActiveKernel(), names)
	}
}

// TestDisableSIMDKnob exercises the QSDNN_DISABLE_SIMD environment
// knob end to end: with it set, re-running dispatch selects the
// pure-Go fallback and GEMM results stay byte-identical to the SIMD
// path's.
func TestDisableSIMDKnob(t *testing.T) {
	// Registered before Setenv so it runs after the env var is
	// restored: re-dispatch back to the host's real kernel.
	t.Cleanup(initKernel)
	t.Setenv("QSDNN_DISABLE_SIMD", "1")
	initKernel()
	if got := ActiveKernel(); got != "go-4x8" {
		t.Fatalf("ActiveKernel() = %q with QSDNN_DISABLE_SIMD=1, want go-4x8", got)
	}
	rng := rand.New(rand.NewSource(31))
	m, n, k := 33, 29, 17
	a := randomSlice(rng, m*k)
	b := randomSlice(rng, k*n)
	c0 := randomSlice(rng, m*n)
	want := append([]float32(nil), c0...)
	Parallel(m, n, k, a, b, want, 4) // fallback active
	for _, kn := range variants {
		got := append([]float32(nil), c0...)
		blockedKernel(kn, m, n, k, a, b, nil, got, 4, 0, 0, nil)
		if !bitEqual(want, got) {
			t.Errorf("%s: disabled-SIMD result not bit-identical to %s", kn.Name, ActiveKernel())
		}
	}
}

// TestDisableSIMDZeroMeansEnabled pins the knob's documented "" / "0"
// escape hatch.
func TestDisableSIMDZeroMeansEnabled(t *testing.T) {
	t.Cleanup(initKernel)
	t.Setenv("QSDNN_DISABLE_SIMD", "0")
	initKernel()
	if got, first := ActiveKernel(), variants[0].Name; got != first {
		t.Errorf("ActiveKernel() = %q with QSDNN_DISABLE_SIMD=0, want %q", got, first)
	}
}

// TestPickKernel covers the selection function directly.
func TestPickKernel(t *testing.T) {
	if pickKernel(true) != fallbackKernel {
		t.Error("pickKernel(disabled) did not select the pure-Go fallback")
	}
	if pickKernel(false) != variants[0] {
		t.Error("pickKernel(enabled) did not select the first registered variant")
	}
}

// TestSetKernelForTest pins the test hook's restore semantics (it
// backs the cross-package forced-variant tests).
func TestSetKernelForTest(t *testing.T) {
	before := ActiveKernel()
	restore := setKernelForTest(fallbackKernel)
	if ActiveKernel() != "go-4x8" {
		t.Errorf("forced kernel = %q, want go-4x8", ActiveKernel())
	}
	restore()
	if ActiveKernel() != before {
		t.Errorf("restore left %q, want %q", ActiveKernel(), before)
	}
}

// TestNEONEncodings statically verifies the WORD-encoded instructions
// in microkernel_arm64.s against the A64 encoding formulas (the Go
// arm64 assembler has no mnemonic for unfused vector FMUL/FADD, so
// those two are hand-encoded):
//
//	FMUL Vd.4S, Vn.4S, Vm.4S = 0x6E20DC00 | m<<16 | n<<5 | d
//	FADD Vd.4S, Vn.4S, Vm.4S = 0x4E20D400 | m<<16 | n<<5 | d
//
// It parses every `WORD $0x... // FMUL|FADD Vd.4S, Vn.4S, Vm.4S` line
// and recomputes the constant from the commented operands, so the
// encodings stay checked on every architecture — no qemu needed. A
// real arm64 build is additionally covered by the runtime bit-equality
// suites above.
func TestNEONEncodings(t *testing.T) {
	src, err := os.ReadFile("microkernel_arm64.s")
	if err != nil {
		t.Fatalf("reading asm source: %v", err)
	}
	re := regexp.MustCompile(`WORD \$0x([0-9A-Fa-f]{8}) // (FMUL|FADD) V(\d+)\.4S, V(\d+)\.4S, V(\d+)\.4S`)
	matches := re.FindAllStringSubmatch(string(src), -1)
	if len(matches) != 32 { // 8 dup rows x (2 FMUL + 2 FADD)
		t.Fatalf("found %d WORD-encoded FMUL/FADD lines, want 32", len(matches))
	}
	for _, mt := range matches {
		word, _ := strconv.ParseUint(mt[1], 16, 32)
		d, _ := strconv.Atoi(mt[3])
		n, _ := strconv.Atoi(mt[4])
		m, _ := strconv.Atoi(mt[5])
		base := uint64(0x6E20DC00) // FMUL (vector, single-precision)
		if mt[2] == "FADD" {
			base = 0x4E20D400
		}
		want := base | uint64(m)<<16 | uint64(n)<<5 | uint64(d)
		if word != want {
			t.Errorf("%s V%d, V%d, V%d: WORD $0x%08X, formula gives 0x%08X", mt[2], d, n, m, word, want)
		}
	}
}
