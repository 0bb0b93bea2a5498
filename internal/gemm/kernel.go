package gemm

import (
	"os"
	"sync/atomic"
)

// Kernel describes one register micro-kernel and the operand
// geometry it consumes. The packed GEMM is generic over this
// descriptor: blockedKernel walks MR-row strips of A and NR-wide panels
// of B, and the micro func reduces one MR x NR tile. Dispatch picks one
// Kernel per process at init (see initKernel); the whole strip/panel
// pipeline reads the geometry from the descriptor, so no per-call ISA
// branching happens anywhere in the hot path.
//
// Bit-equality contract: every micro-kernel — any ISA, any geometry,
// any operand stride — accumulates each tile element as
//
//	sum over p ascending of one float32 multiply then one float32 add,
//	starting from +0,
//
// with no fused multiply-add and no reassociation, and then either
// stores that sum or adds it to C once, as c = c + sum. Per-element
// rounding therefore never depends on the tile shape or on whether an
// operand is read in place or from a packed copy, so Parallel produces
// byte-identical C under every Kernel, each matching the pure-Go
// fallback exactly (pinned by the dispatch equality tests; a NaN
// result is pinned as a class, since its sign and payload follow an
// operand order Go's compiler does not fix). This is why the AVX2 and
// NEON kernels use mul+add pairs rather than FMA: FMA skips the
// intermediate rounding and would break the contract. The pure-Go
// kernels write each product float32(a*b) for the same reason: the
// explicit conversion keeps the compiler from fusing it into the add,
// which Go's arm64 backend otherwise does.
type Kernel struct {
	// Name identifies the variant in -version output, /statusz and the
	// bench JSONs, e.g. "sse-4x8", "avx2-8x8", "neon-8x8", "go-4x8".
	Name string
	// MR x NR is the register tile: MR rows of A by NR columns of B.
	MR, NR int
	// micro reduces one MR x NR tile over k steps. It reads A row ii,
	// step p at a[ii*lda+p] and B step p, column jj at b[p*ldb+jj], and
	// writes tile row ii to c[ii*ldc:]: with add it sets c = c + sum,
	// otherwise c = sum. k may be 0, when every sum is +0.
	micro func(k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, add bool)
	// packs marks a micro that reads packed operands only: A as a
	// p-major strip of MR values per step (lda unused) and B as an
	// NR-wide panel (ldb = NR). The GEMM then packs every strip and
	// panel, as neon-8x8's kernel needs.
	packs bool
	// rows are the memory-bound kernels' lane-wise loops that ride this
	// variant's dispatch (rows.go).
	rows *Rows
}

// fallbackKernel is the pure-Go kernel every build has: the 4x8
// geometry of the original SSE micro-kernel with microTileGo as the
// reference reduction. QSDNN_DISABLE_SIMD forces it; every SIMD
// variant must be bit-equal to it.
var fallbackKernel = &Kernel{Name: "go-4x8", MR: 4, NR: 8, micro: microTileGo, rows: goRows}

// variants lists every kernel usable on this host, fastest first, with
// the pure-Go fallback always last. Populated by init (per GOARCH) and
// walked by the dispatch equality tests.
var variants = []*Kernel{fallbackKernel}

// active is the dispatched kernel. An atomic pointer so tests can
// force variants under -race without a data race against concurrent
// GEMM calls.
var active atomic.Pointer[Kernel]

// registerKernel prepends a detected kernel, keeping the registration
// order (fastest first) ahead of the fallback.
func registerKernel(k *Kernel) {
	variants = append([]*Kernel{k}, variants...)
}

// simdDisabled reports whether the QSDNN_DISABLE_SIMD environment knob
// forces the pure-Go fallback ("" and "0" mean enabled).
func simdDisabled() bool {
	v := os.Getenv("QSDNN_DISABLE_SIMD")
	return v != "" && v != "0"
}

// pickKernel returns the kernel dispatch selects: the first registered
// variant, or the pure-Go fallback when SIMD is disabled.
func pickKernel(disabled bool) *Kernel {
	if disabled {
		return fallbackKernel
	}
	return variants[0]
}

// initKernel (re-)runs dispatch. Called once from init; tests call it
// again around environment changes.
func initKernel() {
	active.Store(pickKernel(simdDisabled()))
}

func init() {
	// Architecture init functions (registerAMD64Kernels, ...) run
	// before this package-level init uses the registry only if ordering
	// is explicit, so detection is invoked here directly.
	registerArchKernels()
	initKernel()
}

// ActiveKernel reports the name of the dispatched micro-kernel, e.g.
// "avx2-8x8". Surfaced through `qsdnn version` and the serve /statusz
// payload so recorded benchmarks say which ISA produced them.
func ActiveKernel() string { return active.Load().Name }

// KernelVariants lists every micro-kernel usable on this host, fastest
// first, ending with the pure-Go fallback.
func KernelVariants() []string {
	names := make([]string, len(variants))
	for i, k := range variants {
		names[i] = k.Name
	}
	return names
}

// activeKernel returns the dispatched descriptor.
func activeKernel() *Kernel { return active.Load() }

// setKernelForTest forces a specific variant and returns a restore
// func. Test-only.
func setKernelForTest(k *Kernel) func() {
	prev := active.Load()
	active.Store(k)
	return func() { active.Store(prev) }
}

// microTileGeneric is the shape-generic pure-Go reduction: the
// reference every specialized micro-kernel (any geometry, any ISA) is
// tested against tile for tile. Each element accumulates from +0 in
// ascending p order with separate multiply and add, then is stored or
// added to C once, exactly the contract above.
func microTileGeneric(k, mr, nr int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, add bool) {
	for ii := 0; ii < mr; ii++ {
		for jj := 0; jj < nr; jj++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a[ii*lda+p] * b[p*ldb+jj])
			}
			if add {
				c[ii*ldc+jj] += s
			} else {
				c[ii*ldc+jj] = s
			}
		}
	}
}
