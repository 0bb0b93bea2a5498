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
}

// String returns the primitive name.
func (p *Primitive) String() string { return p.Name }

// registry and byName hold the fixed primitive table, built once
// during package initialization and read-only afterwards.
var registry []*Primitive
var byName = map[string]*Primitive{}

func reg(name string, lib Library, algo Algorithm, lower Lowering, proc Processor, layout tensor.Layout) *Primitive {
	p := &Primitive{
		Idx:  ID(len(registry)),
		Name: name, Lib: lib, Algo: algo, Lower: lower, Proc: proc, Layout: layout,
	}
	registry = append(registry, p)
	byName[name] = p
	return p
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
func Registry() []*Primitive { return registry }

// ByName looks a primitive up by its stable name.
func ByName(name string) (*Primitive, bool) {
	p, ok := byName[name]
	return p, ok
}

// ByID returns the primitive with the given registry index.
func ByID(id ID) *Primitive {
	if int(id) < 0 || int(id) >= len(registry) {
		panic(fmt.Sprintf("primitives: id %d out of range", id))
	}
	return registry[id]
}

// Count returns the registry size: a constant, since the table is
// fixed at init. Q-tables, LUT penalty matrices and the committed
// goldens are all sized by it.
func Count() int { return len(registry) }
