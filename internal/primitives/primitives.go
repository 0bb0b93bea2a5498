// Package primitives models §III-B of the paper: the acceleration
// libraries available to the inference engine optimizer (Vanilla,
// ATLAS, OpenBLAS, NNPACK, ArmCL, Sparse, cuDNN, cuBLAS), the
// primitives each provides, and which layers each primitive can
// implement. The per-layer candidate sets generated here are the
// action space of the Q-learning agent; the registry caps at 13
// variants for a layer, matching the paper's reported maximum.
package primitives

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// Processor identifies where a primitive executes. Assigning adjacent
// layers to different processors costs a memory transfer.
type Processor uint8

const (
	// CPU is the single-threaded ARM A57-class core.
	CPU Processor = iota
	// GPU is the Pascal-class GPGPU.
	GPU
)

// String returns the processor name.
func (p Processor) String() string {
	if p == CPU {
		return "CPU"
	}
	return "GPU"
}

// Library identifies the acceleration library a primitive belongs to.
type Library uint8

const (
	// Vanilla is the dependency-free ANSI-C-style baseline that
	// implements every layer type (the paper's portability floor and
	// the denominator of every Table II speedup).
	Vanilla Library = iota
	// ATLAS is the auto-tuned BLAS (GEMM/GEMV via lowering methods).
	ATLAS
	// OpenBLAS is the hand-tuned BLAS (GEMM/GEMV via lowering methods).
	OpenBLAS
	// NNPACK provides low-level CPU performance primitives for
	// specific DL layers.
	NNPACK
	// ArmCL is Arm Compute Library: Winograd and GEMM routines for
	// convolution plus specialized depth-wise code.
	ArmCL
	// Sparse keeps pruned conv/FC weights compressed (CSR) in memory.
	Sparse
	// CuDNN provides optimized GPU primitives for most DNN layers —
	// but, as the paper stresses, no fully-connected primitive.
	CuDNN
	// CuBLAS provides the GPU GEMV routine used for FC layers.
	CuBLAS
)

var libNames = [...]string{"Vanilla", "ATLAS", "OpenBLAS", "NNPACK", "ArmCL", "Sparse", "cuDNN", "cuBLAS"}

// String returns the library name.
func (l Library) String() string {
	if int(l) < len(libNames) {
		return libNames[l]
	}
	return fmt.Sprintf("Library(%d)", uint8(l))
}

// AllLibraries lists every acceleration library.
func AllLibraries() []Library {
	return []Library{Vanilla, ATLAS, OpenBLAS, NNPACK, ArmCL, Sparse, CuDNN, CuBLAS}
}

// Algorithm is the routine type a primitive uses (Table I's
// "Algorithm" state parameter).
type Algorithm uint8

const (
	// Direct is a straightforward nested-loop implementation.
	Direct Algorithm = iota
	// GEMMAlgo lowers the operation to a matrix multiply.
	GEMMAlgo
	// GEMVAlgo lowers a batch-1 FC layer to a matrix-vector multiply.
	GEMVAlgo
	// WinogradAlgo is the F(2x2,3x3) fast convolution.
	WinogradAlgo
	// SpatialDW is code specialized for depth-wise convolution.
	SpatialDW
	// SparseAlgo operates on CSR-compressed weights.
	SparseAlgo
	// FFTAlgo computes stride-1 convolutions in the frequency domain
	// (NNPACK's path for kernels too large for Winograd tiles).
	FFTAlgo
)

var algoNames = [...]string{"direct", "gemm", "gemv", "winograd", "spatial-dw", "sparse", "fft"}

// String returns the algorithm name.
func (a Algorithm) String() string {
	if int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// Lowering is the matrix-lowering method of BLAS-backed convolutions
// (Table I's "Algorithm impl" state parameter).
type Lowering uint8

const (
	// NoLowering means the primitive does not lower to a matrix form.
	NoLowering Lowering = iota
	// Im2col materializes patches as columns.
	Im2col
	// Im2row materializes patches as rows.
	Im2row
	// Kn2row decomposes the kernel into per-offset 1x1 GEMMs.
	Kn2row
)

var lowNames = [...]string{"", "im2col", "im2row", "kn2row"}

// String returns the lowering name ("" for none).
func (l Lowering) String() string {
	if int(l) < len(lowNames) {
		return lowNames[l]
	}
	return fmt.Sprintf("Lowering(%d)", uint8(l))
}

// ID indexes a primitive in the global registry; it is the compact key
// the Q-table and look-up table use.
type ID int

// Primitive is one executable implementation choice: a library routine
// with its algorithm, lowering, processor and required tensor layout.
// Together with the layer position these are exactly the state-space
// parameters of the paper's Table I.
type Primitive struct {
	// Idx is the registry index.
	Idx ID
	// Name is the stable human-readable identifier, e.g.
	// "openblas-gemm-im2col".
	Name string
	// Lib is the owning acceleration library.
	Lib Library
	// Algo is the routine type.
	Algo Algorithm
	// Lower is the lowering method (BLAS convolutions only).
	Lower Lowering
	// Proc is the processor the primitive runs on.
	Proc Processor
	// Layout is the activation layout the primitive requires for both
	// input and output.
	Layout tensor.Layout
	// Tuned marks an autotuner twin: a copy of the primitive at Base
	// whose per-layer execution parameters (cache blocking,
	// micro-kernel, panel width, workers) come from a tuning cache
	// instead of the defaults. Twins exist only after
	// EnableTunedVariants and never appear in default candidate sets.
	Tuned bool
	// Base is the registry index of the primitive a tuned twin
	// parameterizes (equal to Idx for ordinary primitives).
	Base ID
}

// String returns the primitive name.
func (p *Primitive) String() string { return p.Name }

// regState is one immutable snapshot of the primitive table. The
// active snapshot is swapped atomically (copy-on-write) so that
// EnableTunedVariants can extend the table while concurrent readers
// (serve handlers, profiling goroutines) keep a consistent view — a
// reader either sees the table with all tuned twins or with none.
type regState struct {
	prims  []*Primitive
	byName map[string]*Primitive
}

var regp atomic.Pointer[regState]

// registry and byName accumulate the fixed base table during package
// initialization; init() below publishes them as the first snapshot.
var registry []*Primitive
var byName = map[string]*Primitive{}

func reg(name string, lib Library, algo Algorithm, lower Lowering, proc Processor, layout tensor.Layout) *Primitive {
	p := &Primitive{
		Idx:  ID(len(registry)),
		Name: name, Lib: lib, Algo: algo, Lower: lower, Proc: proc, Layout: layout,
	}
	p.Base = p.Idx
	registry = append(registry, p)
	byName[name] = p
	return p
}

func init() {
	regp.Store(&regState{prims: registry, byName: byName})
}

// The primitive instances. Grouped by library; layouts follow the
// library's native preference (BLAS/cuDNN planar NCHW, NNPACK/ArmCL
// interleaved NHWC) so that mixing libraries costs real conversions.
var (
	PVanilla = reg("vanilla-direct", Vanilla, Direct, NoLowering, CPU, tensor.NCHW)

	PAtlasIm2col = reg("atlas-gemm-im2col", ATLAS, GEMMAlgo, Im2col, CPU, tensor.NCHW)
	PAtlasIm2row = reg("atlas-gemm-im2row", ATLAS, GEMMAlgo, Im2row, CPU, tensor.NCHW)
	PAtlasKn2row = reg("atlas-gemm-kn2row", ATLAS, GEMMAlgo, Kn2row, CPU, tensor.NCHW)
	PAtlasGemv   = reg("atlas-gemv", ATLAS, GEMVAlgo, NoLowering, CPU, tensor.NCHW)

	POpenIm2col = reg("openblas-gemm-im2col", OpenBLAS, GEMMAlgo, Im2col, CPU, tensor.NCHW)
	POpenIm2row = reg("openblas-gemm-im2row", OpenBLAS, GEMMAlgo, Im2row, CPU, tensor.NCHW)
	POpenKn2row = reg("openblas-gemm-kn2row", OpenBLAS, GEMMAlgo, Kn2row, CPU, tensor.NCHW)
	POpenGemv   = reg("openblas-gemv", OpenBLAS, GEMVAlgo, NoLowering, CPU, tensor.NCHW)

	PNNPackWinograd = reg("nnpack-winograd", NNPACK, WinogradAlgo, NoLowering, CPU, tensor.NHWC)
	PNNPackGemm     = reg("nnpack-gemm", NNPACK, GEMMAlgo, NoLowering, CPU, tensor.NHWC)
	PNNPackFFT      = reg("nnpack-fft", NNPACK, FFTAlgo, NoLowering, CPU, tensor.NHWC)
	PNNPackOp       = reg("nnpack-op", NNPACK, Direct, NoLowering, CPU, tensor.NHWC)

	PArmCLWinograd = reg("armcl-winograd", ArmCL, WinogradAlgo, NoLowering, CPU, tensor.NHWC)
	PArmCLGemm     = reg("armcl-gemm", ArmCL, GEMMAlgo, NoLowering, CPU, tensor.NHWC)
	PArmCLDepth    = reg("armcl-depthwise", ArmCL, SpatialDW, NoLowering, CPU, tensor.NHWC)

	PSparseConv = reg("sparse-conv", Sparse, SparseAlgo, Im2col, CPU, tensor.NCHW)
	PSparseFC   = reg("sparse-fc", Sparse, SparseAlgo, NoLowering, CPU, tensor.NCHW)

	PCuDNNConv  = reg("cudnn-conv", CuDNN, GEMMAlgo, NoLowering, GPU, tensor.NCHW)
	PCuDNNWino  = reg("cudnn-winograd", CuDNN, WinogradAlgo, NoLowering, GPU, tensor.NCHW)
	PCuDNNDepth = reg("cudnn-depthwise", CuDNN, SpatialDW, NoLowering, GPU, tensor.NCHW)
	PCuDNNOp    = reg("cudnn-op", CuDNN, Direct, NoLowering, GPU, tensor.NCHW)

	PCuBLASGemv = reg("cublas-gemv", CuBLAS, GEMVAlgo, NoLowering, GPU, tensor.NCHW)
)

// Registry returns the full primitive table in index order. The
// returned slice must not be modified.
func Registry() []*Primitive { return regp.Load().prims }

// ByName looks a primitive up by its stable name.
func ByName(name string) (*Primitive, bool) {
	p, ok := regp.Load().byName[name]
	return p, ok
}

// ByID returns the primitive with the given registry index.
func ByID(id ID) *Primitive {
	prims := regp.Load().prims
	if int(id) < 0 || int(id) >= len(prims) {
		panic(fmt.Sprintf("primitives: id %d out of range", id))
	}
	return prims[id]
}

// Count returns the registry size.
func Count() int { return len(regp.Load().prims) }

// TunedSuffix distinguishes an autotuner twin's name from its base
// primitive's ("openblas-gemm-im2col" -> "openblas-gemm-im2col#tuned").
const TunedSuffix = "#tuned"

// tunedBases lists the primitives that get autotuner twins: the
// packed-GEMM lowering paths whose blocking, micro-kernel, panel width
// and worker count internal/tune can actually vary.
var tunedBases = []*Primitive{POpenIm2col, POpenIm2row, POpenKn2row}

var enableTunedOnce sync.Once

// EnableTunedVariants extends the registry with one tuned twin per
// tunable base primitive and returns the twins in registration order.
// It is idempotent and safe for concurrent use.
//
// Twins are registered on demand — never at init — because the
// registry size is serialized state: Q-table checkpoints and LUT
// penalty matrices are sized by Count(), and the committed goldens pin
// the 22-primitive base table. Only code paths that opted into
// autotuning (-autotune, -tuner-cache) ever see the extended table;
// the default path stays byte-identical. Candidate sets are built from
// the explicit base primitives (see Candidates), so twins never enter
// a search unless a tuning cache adds them via lut.AddCandidate.
func EnableTunedVariants() []*Primitive {
	enableTunedOnce.Do(func() {
		old := regp.Load()
		prims := append([]*Primitive(nil), old.prims...)
		names := make(map[string]*Primitive, len(old.byName)+len(tunedBases))
		for k, v := range old.byName {
			names[k] = v
		}
		for _, base := range tunedBases {
			t := *base
			t.Idx = ID(len(prims))
			t.Name = base.Name + TunedSuffix
			t.Tuned = true
			t.Base = base.Idx
			tp := &t
			prims = append(prims, tp)
			names[tp.Name] = tp
		}
		regp.Store(&regState{prims: prims, byName: names})
	})
	twins := make([]*Primitive, 0, len(tunedBases))
	for _, p := range regp.Load().prims {
		if p.Tuned {
			twins = append(twins, p)
		}
	}
	return twins
}

// TunedOf returns the tuned twin of the given base primitive, or ok
// false if the base has no twin (or twins are not enabled).
func TunedOf(base ID) (ID, bool) {
	for _, p := range regp.Load().prims {
		if p.Tuned && p.Base == base {
			return p.Idx, true
		}
	}
	return 0, false
}
