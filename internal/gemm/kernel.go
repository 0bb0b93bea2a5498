package gemm

import (
	"os"
	"sync/atomic"
)

// Kernel describes one register micro-kernel and the pack-buffer
// geometry it consumes. The packed GEMM is generic over this
// descriptor: packBBlock lays B out in NR-wide panels, packStripABlock
// packs MR-row strips of A, and the micro func reduces one MR x NR tile.
// Dispatch picks one Kernel per process at init (see initKernel); the
// whole pack/strip pipeline reads the geometry from the descriptor, so
// no per-call ISA branching happens anywhere in the hot path.
//
// Bit-equality contract: every micro-kernel — any ISA, any geometry —
// accumulates each output element t[ii*NR+jj] as
//
//	sum over p ascending of one float32 multiply then one float32 add
//
// with no fused multiply-add and no reassociation. Per-element
// rounding therefore never depends on the tile shape, so Parallel
// produces byte-identical C under every Kernel, each matching the
// pure-Go fallback exactly (pinned by the dispatch equality tests). This is why the AVX2 and NEON kernels use mul+add pairs
// rather than FMA: FMA skips the intermediate rounding and would break
// the contract.
type Kernel struct {
	// Name identifies the variant in -version output, /statusz and the
	// bench JSONs, e.g. "sse-4x8", "avx2-8x8", "neon-8x8", "go-4x8".
	Name string
	// MR x NR is the register tile: MR rows of A by NR columns of B.
	MR, NR int
	// micro computes the MR x NR tile from a packed A strip (p-major,
	// MR values per step, k*MR elements) and a packed B panel (p-major,
	// NR values per step, k*NR elements) into t[:MR*NR]. k may be 0, in
	// which case t must be zeroed.
	micro func(k int, ap, bp, t []float32)
}

// fallbackKernel is the pure-Go kernel every build has: the 4x8
// geometry of the original SSE micro-kernel with microTileGo as the
// reference reduction. QSDNN_DISABLE_SIMD forces it; every SIMD
// variant must be bit-equal to it.
var fallbackKernel = &Kernel{Name: "go-4x8", MR: 4, NR: 8, micro: microTileGo}

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
// tested against tile-for-tile. Each element accumulates in ascending
// p order with separate multiply and add, exactly the contract above.
func microTileGeneric(k, mr, nr int, ap, bp, t []float32) {
	t = t[:mr*nr]
	for i := range t {
		t[i] = 0
	}
	for p := 0; p < k; p++ {
		a := ap[p*mr : p*mr+mr : p*mr+mr]
		b := bp[p*nr : p*nr+nr : p*nr+nr]
		for ii, av := range a {
			trow := t[ii*nr : ii*nr+nr : ii*nr+nr]
			for jj, bv := range b {
				trow[jj] += av * bv
			}
		}
	}
}

// microTileGo8x8 is the pure-Go 8x8 reduction the AVX2 and NEON
// kernels are pinned against.
func microTileGo8x8(k int, ap, bp, t []float32) {
	microTileGeneric(k, 8, 8, ap, bp, t)
}
