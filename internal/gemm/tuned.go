package gemm

// BlockConfig parameterizes the packed GEMM pipeline for the per-layer
// autotuner (internal/tune). The zero value selects exactly the default
// pipeline: the runtime-dispatched micro-kernel, B walked in full-k
// blocks of panelCols (256) columns, every output tile accumulated
// across the full k reduction in registers — ParallelCfg with a zero
// BlockConfig is bit-identical to Parallel.
//
// Non-zero KC/NC select the cache-blocked Goto loop structure instead:
// B is walked one (KC x NC) block at a time and each block's
// contribution is added into C before the next block starts, so the
// block and the C tiles it feeds stay cache-resident for shapes whose
// larger blocks would not. Only KC changes bits: with KC set,
// each output element accumulates one partial sum per KC block instead
// of one full-k sum, which agrees with the default path within float32
// tolerance but not bit for bit. NC alone splits only the columns, and
// every element still gets its full-k, ascending-p register sum, so an
// NC-only config is bit-identical to the default path (which itself
// walks B panelCols columns at a time). Every config is bit-identical
// to itself at any worker count, which is the contract the tuner's
// measurements rely on.
type BlockConfig struct {
	// Kernel names the micro-kernel variant to run ("avx512-8x16",
	// "avx2-8x8", "sse-4x8", "go-4x8", ...); "" or an unknown name selects the
	// runtime-dispatched kernel, so a stale tuning cache degrades to
	// the default instead of failing.
	Kernel string
	// KC is the k-blocking depth (reduction elements packed per block);
	// <= 0 selects the full reduction (no k blocking).
	KC int
	// NC is the n-blocking width (B columns packed per block), rounded
	// up to the kernel's NR; <= 0 selects the default 256-column blocks.
	NC int
}

// kernelByName resolves a micro-kernel variant by name. "" and unknown
// names resolve to the dispatched kernel — tuned configs must degrade,
// never fail, when a cache recorded a kernel this host does not have.
func kernelByName(name string) *Kernel {
	if name == "" {
		return activeKernel()
	}
	for _, k := range variants {
		if k.Name == name {
			return k
		}
	}
	return activeKernel()
}

// KernelShape reports the register-tile geometry of the named variant,
// with ok false for names not registered on this host. The tuner uses
// it both to enumerate real variants and as surrogate features.
func KernelShape(name string) (mr, nr int, ok bool) {
	for _, k := range variants {
		if k.Name == name {
			return k.MR, k.NR, true
		}
	}
	return 0, 0, false
}

// ParallelCfg computes C = A*B + C like Parallel, or C = bias + A*B
// under a non-zero bias (see Bias), through an explicit BlockConfig:
// micro-kernel choice and optional KC/NC cache blocking. A zero config
// and a zero Bias are bit-identical to Parallel(m, n, k, a, b, c,
// workers). scratch is the call's workspace,
// as dst is a kernel's output: nil allocates one, otherwise it must
// hold ScratchLen(m, n, k, workers, cfg) elements, whose contents do
// not matter, and the call allocates nothing on one worker.
func ParallelCfg(m, n, k int, a, b, c []float32, bias Bias, workers int, cfg BlockConfig, scratch []float32) {
	blockedKernel(kernelByName(cfg.Kernel), m, n, k, a, b, nil, c, bias, workers, cfg.KC, cfg.NC, scratch)
}

// ParallelPacker is ParallelCfg with B supplied by pk, block by block,
// instead of as a (k x n) matrix: a lowering that gathers straight into
// the panel layout builds its patch matrix once rather than twice. The
// result is bit-identical to ParallelCfg on the matrix pk describes.
func ParallelPacker(m, n, k int, a []float32, pk Packer, c []float32, bias Bias, workers int, cfg BlockConfig, scratch []float32) {
	blockedKernel(kernelByName(cfg.Kernel), m, n, k, a, nil, pk, c, bias, workers, cfg.KC, cfg.NC, scratch)
}
