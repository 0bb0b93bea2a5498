package gemm

import (
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// specialValues are the float32 classes a kernel could round, order or
// propagate differently: signed zeros, infinities, NaN and subnormals.
var specialValues = []float32{
	float32(math.Copysign(0, -1)), 0,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // largest subnormal
}

// sameBits reports whether two slices carry identical IEEE-754 bit
// patterns, except that any NaN matches any NaN. Which operand's NaN a
// multiply or add returns depends on operand order, which Go's compiler
// does not fix even for its own scalar code (the two pure-Go kernels
// already disagree on the sign of a NaN made from 0 * Inf), so a NaN
// result is pinned as a class only. Every other value, -0 and
// subnormals included, must match bit for bit.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && (a[i] == a[i] || b[i] == b[i]) {
			return false
		}
	}
	return true
}

// specialSlice returns n random values in [-1, 1) with about one in
// eight replaced by a special value.
func specialSlice(rng *rand.Rand, n int) []float32 {
	s := randomSlice(rng, n)
	for i := range s {
		if rng.Intn(8) == 0 {
			s[i] = specialValues[rng.Intn(len(specialValues))]
		}
	}
	return s
}

// TestMicroKernelVariantsMatchGeneric pins every dispatched
// micro-kernel against the shape-generic pure-Go reduction, bit for
// bit, tile for tile, under every stride the GEMM hands it: A rows at
// lda = k or k+3, B read as a packed panel (ldb = NR) or in place in a
// wider matrix (ldb = n), the tile written to a tile buffer (ldc = NR)
// or into a wider C (ldc = n), under every start: stored bare, added to
// C, or added to a row bias (broadcast per row) or a column bias (one
// vector for every row). Inputs, C and the biases mix in -0, ±Inf, NaN
// and subnormals; k covers 0 (all sums +0) and depths that would
// expose accumulation-order or FMA differences. Elements of C outside
// the tile must come back untouched. NaN results match as a class (see
// sameBits). A packing kernel (Kernel.packs) gets A packed and B as a
// panel only.
func TestMicroKernelVariantsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, kn := range variants {
		mr, nr := kn.MR, kn.NR
		n := 2*nr + 5
		rowBias, colBias := specialSlice(rng, mr), specialSlice(rng, nr)
		for _, k := range []int{0, 1, 2, 3, 7, 64, 513} {
			for _, lda := range []int{k, k + 3} {
				a := specialSlice(rng, (mr-1)*lda+k)
				ak := a
				if kn.packs {
					ak = make([]float32, k*mr)
					packStripABlock(mr, lda, 0, mr, 0, k, a, ak)
				}
				for _, ldb := range []int{nr, n} {
					if kn.packs && ldb != nr {
						continue
					}
					b := specialSlice(rng, max(0, (k-1)*ldb+nr))
					for _, ldc := range []int{nr, n} {
						c0 := specialSlice(rng, (mr-1)*ldc+nr)
						for _, how := range []string{"bare", "C", "row bias", "column bias"} {
							got := append([]float32(nil), c0...)
							want := append([]float32(nil), c0...)
							gotSt, wantSt := tileStart(how, got, ldc, rowBias, colBias), tileStart(how, want, ldc, rowBias, colBias)
							kn.micro(k, ak, lda, b, ldb, got, ldc, gotSt)
							microTileGeneric(k, mr, nr, a, lda, b, ldb, want, ldc, wantSt)
							if !sameBits(got, want) {
								t.Errorf("%s k=%d lda=%d ldb=%d ldc=%d start=%s: not bit-identical to generic Go:\n got %v\nwant %v",
									kn.Name, k, lda, ldb, ldc, how, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// tileStart returns the start the GEMM hands a micro-kernel for the
// named case: none, the tile's own C (row stride ldc), or a row or
// column bias.
func tileStart(how string, c []float32, ldc int, rowBias, colBias []float32) start {
	switch how {
	case "C":
		return start{v: c, rs: ldc, cs: 1}
	case "row bias":
		return start{v: rowBias, rs: 1}
	case "column bias":
		return start{v: colBias, cs: 1}
	}
	return start{}
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
		blockedKernel(fallbackKernel, m, n, k, a, b, nil, want, Bias{}, 1, 0, 0, nil)
		for _, kn := range variants {
			for _, w := range []int{1, 3, 8} {
				got := append([]float32(nil), c0...)
				blockedKernel(kn, m, n, k, a, b, nil, got, Bias{}, w, 0, 0, nil)
				if !bitEqual(want, got) {
					t.Errorf("%s %dx%dx%d workers=%d: not bit-identical to pure-Go fallback", kn.Name, m, n, k, w)
				}
			}
		}
	}
}

// packedGo8x8 is a pure-Go kernel with neon-8x8's operand contract:
// it reads packed strips and panels only (Kernel.packs). It runs the
// packing path of the GEMM loop on hosts without NEON.
var packedGo8x8 = &Kernel{Name: "packed-go-8x8", MR: 8, NR: 8, packs: true, rows: goRows,
	micro: func(k int, a []float32, _ int, b []float32, _ int, c []float32, ldc int, st start) {
		var t [64]float32
		for ii := 0; ii < 8; ii++ {
			for jj := 0; jj < 8; jj++ {
				var s float32
				for p := 0; p < k; p++ {
					s += float32(a[p*8+ii] * b[p*8+jj])
				}
				t[ii*8+jj] = s
			}
		}
		storeTile(8, 8, 8, t[:], c, ldc, st)
	}}

// TestPackingKernelPathBitEqual runs the GEMM loop's packing path
// (every strip and panel packed, as neon-8x8 needs) on the edge shapes,
// from a matrix and through a Packer, at 1 and 3 workers, and requires
// the pure-Go fallback's bits.
func TestPackingKernelPathBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, dims := range edgeShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a, b, c0 := randomSlice(rng, m*k), randomSlice(rng, k*n), randomSlice(rng, m*n)
		want := append([]float32(nil), c0...)
		blockedKernel(fallbackKernel, m, n, k, a, b, nil, want, Bias{}, 1, 0, 0, nil)
		for _, w := range []int{1, 3} {
			got := append([]float32(nil), c0...)
			blockedKernel(packedGo8x8, m, n, k, a, b, nil, got, Bias{}, w, 0, 0, nil)
			if !bitEqual(want, got) {
				t.Errorf("%dx%dx%d workers=%d: packing path differs from the fallback", m, n, k, w)
			}
			got = append(got[:0], c0...)
			blockedKernel(packedGo8x8, m, n, k, a, nil, matrixPacker{n, b}, got, Bias{}, w, 0, 0, nil)
			if !bitEqual(want, got) {
				t.Errorf("%dx%dx%d workers=%d: packing path through a Packer differs from the fallback", m, n, k, w)
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
		blockedKernel(fallbackKernel, m, n, k, a, b, nil, want, Bias{}, 1, 0, 0, nil)
		for _, kn := range variants {
			got := append([]float32(nil), c0...)
			blockedKernel(kn, m, n, k, a, b, nil, got, Bias{}, 4, 0, 0, nil)
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

// compiledFor lists the micro-kernels each architecture's build
// carries, in registration order after the pure-Go fallback.
var compiledFor = map[string][]string{
	"amd64": {"go-4x8", "sse-4x8", "avx2-8x8", "avx512-8x16"},
	"arm64": {"go-4x8", "neon-8x8"},
}

// TestCompiledVariantsRegistered names, in the test log, every
// micro-kernel this build compiled beside the ones this host registered
// and the dispatch tests therefore ran. A compiled kernel may be
// missing from KernelVariants only because its CPUID/XCR0 probe
// rejected the host, and each such kernel is logged as not run; any
// other absence fails.
func TestCompiledVariantsRegistered(t *testing.T) {
	want, ok := compiledFor[runtime.GOARCH]
	if !ok {
		want = []string{"go-4x8"}
	}
	var got []string
	for _, k := range compiled {
		got = append(got, k.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s build compiles %v, want %v", runtime.GOARCH, got, want)
	}
	names := KernelVariants()
	for _, k := range compiled {
		registered := slices.Contains(names, k.Name)
		switch {
		case registered != k.usable:
			t.Errorf("%s: compiled, registered = %v, but its probe passed = %v", k.Name, registered, k.usable)
		case registered:
			t.Logf("%s: compiled and run", k.Name)
		default:
			t.Logf("%s: compiled but not run: the CPUID/XCR0 probe rejects this host", k.Name)
		}
	}
	t.Logf("%s: dispatched %s; variants %v", runtime.GOARCH, ActiveKernel(), names)
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
		blockedKernel(kn, m, n, k, a, b, nil, got, Bias{}, 4, 0, 0, nil)
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
