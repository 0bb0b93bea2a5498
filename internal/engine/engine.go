// Package engine is the executable inference engine optimizer: it runs
// a network end-to-end with an arbitrary per-layer primitive
// assignment, using the real float32 kernels, inserting real layout
// conversions at incompatible edges, and timing every step. It plays
// the role of the Bonseyes engine of §III-A: the search never needs it
// (it consumes the LUT), but the engine grounds the reproduction — any
// primitive mix the search emits computes the same function, and the
// engine doubles as a real-measurement profiling source on the host
// CPU.
//
// Only CPU primitives are executable (there is no GPU in this
// environment — the platform package simulates one); asking the engine
// to run a GPU primitive returns an error.
package engine

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// layerParams holds the synthetic learned parameters of one layer.
type layerParams struct {
	w, bias      []float32
	scale, shift []float32
	csr          *kernels.CSR
}

// Engine executes one network with seeded synthetic weights.
type Engine struct {
	// Net is the network being executed.
	Net *nn.Network
	// Density is the kept fraction of conv/FC weights; the remainder
	// are exact zeros so dense and sparse kernels agree bit-for-bit
	// on which function they compute.
	Density float64

	params  []layerParams
	workers int
	// tuned maps (layer, tuned-twin) to the execution config the
	// autotuner selected; see SetTuned.
	tuned map[tunedKey]kernels.ConvTuned
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// Parallelism sets the number of goroutines the library-backed kernels
// may use (the packed GEMM, the conv kernels and the lowerings).
// The Vanilla reference primitive always runs sequentially. Kernel
// outputs are bit-identical at every worker count — parallelism changes
// who computes each exclusive output block, never any reduction order —
// so this is purely a throughput knob. Values < 1 are ignored; the
// default is 1 (sequential).
func Parallelism(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.workers = n
		}
	}
}

// New builds an engine for the network with weights drawn from the
// seed. density in (0, 1] controls weight sparsity (the paper's Sparse
// library assumes pruned models); 0 selects 0.35.
func New(net *nn.Network, seed int64, density float64, opts ...Option) *Engine {
	if density <= 0 || density > 1 {
		density = 0.35
	}
	e := &Engine{Net: net, Density: density, params: make([]layerParams, net.Len()), workers: 1}
	for _, o := range opts {
		o(e)
	}
	rng := rand.New(rand.NewSource(seed))
	for i, l := range net.Layers {
		e.params[i] = e.makeParams(l, rng)
	}
	return e
}

// Workers reports the kernel worker count the engine was built with.
func (e *Engine) Workers() int { return e.workers }

// makeParams draws the layer's weights. Magnitudes scale with
// 1/sqrt(fan-in) to keep activations bounded through deep stacks.
func (e *Engine) makeParams(l *nn.Layer, rng *rand.Rand) layerParams {
	var p layerParams
	sparseFill := func(n, fanIn int) []float32 {
		s := make([]float32, n)
		scale := float32(1 / math.Sqrt(float64(fanIn)))
		for i := range s {
			if rng.Float64() < e.Density {
				s[i] = (rng.Float32()*2 - 1) * scale
			}
		}
		return s
	}
	switch l.Kind {
	case nn.OpConv:
		fanIn := (l.InShape.C / l.Conv.GroupCount()) * l.Conv.KernelH * l.Conv.KernelW
		p.w = sparseFill(l.Conv.OutChannels*fanIn, fanIn)
		p.bias = make([]float32, l.Conv.OutChannels)
		if l.Conv.GroupCount() == 1 {
			p.csr = kernels.FromDense(l.Conv.OutChannels, fanIn, p.w, 0)
		}
	case nn.OpDepthwiseConv:
		k := l.Conv.KernelH * l.Conv.KernelW
		p.w = sparseFill(l.InShape.C*k, k)
		p.bias = make([]float32, l.InShape.C)
	case nn.OpFullyConnected:
		fanIn := l.InShape.Elems()
		p.w = sparseFill(l.OutUnits*fanIn, fanIn)
		p.bias = make([]float32, l.OutUnits)
		p.csr = kernels.FromDense(l.OutUnits, fanIn, p.w, 0)
	case nn.OpBatchNorm:
		p.scale = make([]float32, l.InShape.C)
		p.shift = make([]float32, l.InShape.C)
		for i := range p.scale {
			p.scale[i] = 0.8 + rng.Float32()*0.4
			p.shift[i] = (rng.Float32() - 0.5) * 0.1
		}
	}
	return p
}

// RunResult reports one timed inference.
type RunResult struct {
	// Output is the final layer's activation (host layout, NCHW), in
	// memory of its own that the caller may keep.
	Output *tensor.Tensor
	// LayerSeconds is the kernel execution time per layer index.
	LayerSeconds []float64
	// PenaltySeconds is the total layout-conversion time charged to
	// each consumer layer index.
	PenaltySeconds []float64
	// Total is the end-to-end wall time (kernels + conversions).
	Total float64
}

// VanillaAssignment returns the all-Vanilla assignment for the
// engine's network.
func (e *Engine) VanillaAssignment() []primitives.ID {
	a := make([]primitives.ID, e.Net.Len())
	for i := range a {
		a[i] = primitives.PVanilla.Idx
	}
	return a
}

// Run executes the network on input with the given assignment (one
// primitive ID per layer; entry 0 is ignored). The input must match
// the network's input shape; Run never writes to it. The activations
// live in an arena that Run allocates, plans by liveness and drops on
// return (see compile), so concurrent Runs on one engine share nothing
// but the weights, and the returned Output is the caller's to keep.
func (e *Engine) Run(assignment []primitives.ID, input *tensor.Tensor) (*RunResult, error) {
	return e.run(assignment, input, nil)
}

// run is Run with an observer, which, when non-nil, sees each layer's
// output as soon as its kernel returns, before the arena reuses its
// memory.
func (e *Engine) run(assignment []primitives.ID, input *tensor.Tensor, observe func(layer int, out *tensor.Tensor)) (*RunResult, error) {
	net := e.Net
	if len(assignment) != net.Len() {
		return nil, fmt.Errorf("engine: assignment has %d entries, want %d", len(assignment), net.Len())
	}
	if !input.Shape().Equal(net.InputShape) {
		return nil, fmt.Errorf("engine: input shape %v, want %v", input.Shape(), net.InputShape)
	}
	prog, err := e.compile(assignment)
	if err != nil {
		return nil, err
	}
	offset := make([]int, len(prog.slots)+1)
	for s, n := range prog.slots {
		offset[s+1] = offset[s] + n
	}
	arena := make([]float32, offset[len(prog.slots)])
	at := func(v view) *tensor.Tensor {
		return tensor.NewFrom(v.shape, v.layout, arena[offset[v.slot]:offset[v.slot]+v.shape.Elems()])
	}
	res := &RunResult{
		LayerSeconds:   make([]float64, net.Len()),
		PenaltySeconds: make([]float64, net.Len()),
	}
	acts := make([]*tensor.Tensor, net.Len())
	acts[0] = input.ToLayout(tensor.NCHW)
	var ins []*tensor.Tensor
	start := time.Now()
	for _, st := range prog.steps {
		i := st.layer
		// Real layout conversions at incompatible edges, timed as the
		// consumer's penalty — exactly the compatibility layers of
		// the paper's Fig. 3.
		ins = ins[:0]
		for _, op := range st.in {
			x := acts[op.src]
			if op.conv.slot >= 0 {
				t0 := time.Now()
				x = tensor.Convert(at(op.conv), x)
				res.PenaltySeconds[i] += time.Since(t0).Seconds()
			}
			ins = append(ins, x)
		}
		var dst *tensor.Tensor
		switch {
		case st.inPlace:
			dst = ins[0]
		case st.out.slot >= 0:
			dst = at(st.out)
		}
		var scratch []float32
		if st.scratchLen > 0 {
			scratch = arena[offset[st.scratchSlot] : offset[st.scratchSlot]+st.scratchLen]
		}
		t0 := time.Now()
		out, err := e.execCfg(dst, i, net.Layers[i], st.prim, ins, st.cfg, scratch)
		if err != nil {
			return nil, err
		}
		res.LayerSeconds[i] = time.Since(t0).Seconds()
		acts[i] = out
		if observe != nil {
			observe(i, out)
		}
	}
	// A copy, so that a caller holding the output does not keep the
	// whole arena alive.
	out := acts[net.OutputLayer()]
	res.Output = tensor.Convert(tensor.New(out.Shape(), tensor.NCHW), out)
	res.Total = time.Since(start).Seconds()
	return res, nil
}

// checkExecutable rejects primitives the host cannot run and
// primitives that cannot implement the layer.
func checkExecutable(l *nn.Layer, p *primitives.Primitive) error {
	if p.Proc == primitives.GPU {
		return fmt.Errorf("engine: %s targets the GPU; the real engine executes CPU primitives only (use the platform simulator for GPGPU studies)", p.Name)
	}
	// A tuned twin is executable wherever its base is — candidate sets
	// deliberately never contain twins (see primitives.Candidates).
	target := p
	if p.Tuned {
		target = primitives.ByID(p.Base)
	}
	if primitives.CanImplement(l, primitives.ModeCPU, target) {
		return nil
	}
	return fmt.Errorf("engine: primitive %s cannot implement layer %s (%v)", p.Name, l.Name, l.Kind)
}

// execCfg executes layer i under a non-twin primitive, with cfg
// parameterizing its conv or depth-wise kernel. dst is the output
// tensor in the layer's output shape and p's layout; it may be in[0]
// for the kinds inPlace admits. A Dropout ignores it and returns in[0].
// scratch is the kernel's workspace of scratchLen elements. The caller
// owns both, so a step allocates no buffer of its own.
func (e *Engine) execCfg(dst *tensor.Tensor, i int, l *nn.Layer, p *primitives.Primitive, in []*tensor.Tensor, cfg kernels.ConvTuned, scratch []float32) (*tensor.Tensor, error) {
	x := in[0]
	par := e.params[i]
	switch l.Kind {
	case nn.OpConv, nn.OpDepthwiseConv:
		return e.execConv(dst, l, p, x, par, cfg, scratch)
	case nn.OpFullyConnected:
		if p.Lib == primitives.Sparse {
			return kernels.FCSparse(dst, x, par.csr, par.bias), nil
		}
		return kernels.FCGemv(dst, x, par.w, par.bias, l.OutUnits), nil
	case nn.OpPool:
		if l.Pool == nn.MaxPool {
			return kernels.MaxPool(dst, x, l.Conv), nil
		}
		return kernels.AvgPool(dst, x, l.Conv), nil
	case nn.OpReLU:
		return kernels.ReLU(dst, x), nil
	case nn.OpBatchNorm:
		return kernels.BatchNorm(dst, x, par.scale, par.shift), nil
	case nn.OpLRN:
		return kernels.LRN(dst, x, l.LRNSize), nil
	case nn.OpSoftmax:
		return kernels.Softmax(dst, x), nil
	case nn.OpConcat:
		return kernels.Concat(dst, in), nil
	case nn.OpEltwiseAdd:
		return kernels.EltwiseAdd(dst, in[0], in[1]), nil
	case nn.OpFlatten:
		return kernels.Flatten(dst, x), nil
	case nn.OpDropout:
		return x, nil // inference dropout is the identity
	}
	return nil, fmt.Errorf("engine: layer %s has unsupported kind %v", l.Name, l.Kind)
}

// convGemm returns the GEMM and fan-out a conv runs with under p and
// its tuned config cfg (zero for plain primitives): cfg.Workers
// goroutines, or the engine's Parallelism when cfg.Workers is 0 or
// less, and one goroutine for Vanilla and Sparse. Tuned libraries get
// the packed parallel GEMM (the tuned-BLAS stand-in) under cfg.Block,
// which a zero Block makes bit-identical to gemm.Parallel; ATLAS and
// Vanilla keep the naive one — their role in the paper is the slow
// reference BLAS.
func (e *Engine) convGemm(p *primitives.Primitive, cfg kernels.ConvTuned) (kernels.Gemm, int) {
	w := cfg.Workers
	if w <= 0 {
		w = e.workers
	}
	switch p.Lib {
	case primitives.Vanilla, primitives.Sparse:
		return kernels.Naive, 1
	case primitives.ATLAS:
		return kernels.Naive, w
	}
	return kernels.Gemm{Packed: true, Block: cfg.Block}, w
}

// convKernel is the kernel a conv or depth-wise step runs, paired with
// the size of the workspace it takes (nil for none). Both take the
// layer, the GEMM, the fan-out and the tuned panel, which not every
// kernel uses. nchw marks a kernel that reads and writes NCHW only:
// under an NHWC primitive execConv stages its input and output in NCHW
// at the front of the step's scratch, and scratchLen counts them.
type convKernel struct {
	scratch func(l *nn.Layer, mul kernels.Gemm, w, panel int) int
	run     convRun
	nchw    bool
}

// convRun runs a conv or depth-wise kernel for a step.
type convRun func(dst, x *tensor.Tensor, l *nn.Layer, par layerParams, mul kernels.Gemm, w, panel int, scratch []float32) *tensor.Tensor

// plain adapts a conv or depth-wise kernel that takes no scratch.
func plain(k func(dst, x *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor) convRun {
	return func(dst, x *tensor.Tensor, l *nn.Layer, par layerParams, _ kernels.Gemm, w, _ int, _ []float32) *tensor.Tensor {
		return k(dst, x, par.w, par.bias, l.Conv, w)
	}
}

var (
	directConv        = convKernel{run: plain(kernels.ConvDirect)}
	directNHWCConv    = convKernel{run: plain(kernels.ConvDirectNHWC)}
	depthwiseConv     = convKernel{run: plain(kernels.DepthwiseDirect)}
	depthwiseNHWCConv = convKernel{run: plain(kernels.DepthwiseNHWC)}

	sparseConv = convKernel{
		scratch: func(l *nn.Layer, _ kernels.Gemm, _, _ int) int { return kernels.ConvSparseScratch(l.InShape, l.Conv) },
		run: func(dst, x *tensor.Tensor, l *nn.Layer, par layerParams, _ kernels.Gemm, _, _ int, scratch []float32) *tensor.Tensor {
			return kernels.ConvSparse(dst, x, par.csr, par.bias, l.Conv, scratch)
		},
	}
	im2colConv = convKernel{
		scratch: func(l *nn.Layer, mul kernels.Gemm, w, panel int) int {
			return kernels.ConvIm2colScratch(l.InShape, l.Conv, mul, w, panel)
		},
		run: func(dst, x *tensor.Tensor, l *nn.Layer, par layerParams, mul kernels.Gemm, w, panel int, scratch []float32) *tensor.Tensor {
			return kernels.ConvIm2col(dst, x, par.w, par.bias, l.Conv, mul, w, panel, scratch)
		},
	}
	im2rowConv = convKernel{
		scratch: func(l *nn.Layer, mul kernels.Gemm, w, panel int) int {
			return kernels.ConvIm2rowScratch(l.InShape, l.Conv, mul, w, panel)
		},
		run: func(dst, x *tensor.Tensor, l *nn.Layer, par layerParams, mul kernels.Gemm, w, panel int, scratch []float32) *tensor.Tensor {
			return kernels.ConvIm2row(dst, x, par.w, par.bias, l.Conv, mul, w, panel, scratch)
		},
	}
	kn2rowConv = convKernel{
		scratch: func(l *nn.Layer, mul kernels.Gemm, w, _ int) int {
			return kernels.ConvKn2rowScratch(l.InShape, l.Conv, mul, w)
		},
		run: func(dst, x *tensor.Tensor, l *nn.Layer, par layerParams, mul kernels.Gemm, w, _ int, scratch []float32) *tensor.Tensor {
			return kernels.ConvKn2row(dst, x, par.w, par.bias, l.Conv, mul, w, scratch)
		},
	}
	winogradConv = convKernel{
		scratch: func(l *nn.Layer, _ kernels.Gemm, _, _ int) int { return kernels.ConvWinogradScratch(l.InShape, l.Conv) },
		run: func(dst, x *tensor.Tensor, l *nn.Layer, par layerParams, _ kernels.Gemm, w, _ int, scratch []float32) *tensor.Tensor {
			return kernels.ConvWinograd(dst, x, par.w, par.bias, l.Conv, w, scratch)
		},
		nchw: true,
	}
	// fftConv keeps its float64 transform grids to itself: the one
	// kernel that allocates as it runs (ROADMAP item 12).
	fftConv = convKernel{run: plain(kernels.ConvFFT), nchw: true}
)

// convKernelOf returns the kernel layer l runs under p, or nil when l
// is no conv or p has no CPU kernel for it. compile sizes a step's
// scratch and execConv calls the kernel through this one choice, so
// the two cannot disagree.
func convKernelOf(l *nn.Layer, p *primitives.Primitive) *convKernel {
	switch {
	case l.Kind == nn.OpDepthwiseConv && p.Layout == tensor.NHWC:
		return &depthwiseNHWCConv
	case l.Kind == nn.OpDepthwiseConv:
		return &depthwiseConv
	case l.Kind != nn.OpConv:
		return nil
	case p.Lib == primitives.Vanilla, p.Lib == primitives.Sparse && kernels.IsGrouped(l.Conv):
		// Sparse's SpMM takes no groups; a grouped conv's zero weights
		// add nothing to the direct loop.
		return &directConv
	case p.Lib == primitives.Sparse:
		return &sparseConv
	case p.Lower == primitives.Im2col:
		return &im2colConv
	case p.Lower == primitives.Im2row:
		return &im2rowConv
	case p.Lower == primitives.Kn2row:
		return &kn2rowConv
	case p.Algo == primitives.WinogradAlgo:
		return &winogradConv
	case p.Algo == primitives.FFTAlgo:
		return &fftConv
	case p.Layout == tensor.NHWC: // nnpack-gemm / armcl-gemm
		return &directNHWCConv
	}
	return nil
}

// staged reports whether k runs under p through NCHW copies of its
// input and output.
func staged(k *convKernel, p *primitives.Primitive) bool {
	return k.nchw && p.Layout != tensor.NCHW
}

// scratchLen returns the workspace, in float32 elements, that layer
// l's kernel takes under p and cfg: the NCHW staging of an NCHW-only
// kernel (see convKernel) plus what the kernel's own size function
// reports, and 0 for a kernel that takes none. A tuned twin's
// cfg.Block may name a micro-kernel other than the dispatched one; the
// size follows the named one's register tile.
func (e *Engine) scratchLen(l *nn.Layer, p *primitives.Primitive, cfg kernels.ConvTuned) int {
	k := convKernelOf(l, p)
	if k == nil {
		return 0
	}
	n := 0
	if staged(k, p) {
		n = l.InShape.Elems() + l.OutShape.Elems()
	}
	if k.scratch != nil {
		mul, w := e.convGemm(p, cfg)
		n += k.scratch(l, mul, w, cfg.Panel)
	}
	return n
}

// execConv runs a conv or depth-wise layer through convKernelOf's
// kernel, with the GEMM and fan-out convGemm selects for cfg (zero for
// plain primitives). Panel applies to the im2col and im2row lowerings
// only. An NCHW-only kernel under an NHWC primitive reads a converted
// copy of x and writes an NCHW result that is converted into dst, both
// held in scratch; that cost is the primitive's own business and lands
// in its layer time.
func (e *Engine) execConv(dst *tensor.Tensor, l *nn.Layer, p *primitives.Primitive, x *tensor.Tensor, par layerParams, cfg kernels.ConvTuned, scratch []float32) (*tensor.Tensor, error) {
	k := convKernelOf(l, p)
	if k == nil {
		return nil, fmt.Errorf("engine: no conv kernel for %s", p.Name)
	}
	mul, w := e.convGemm(p, cfg)
	if !staged(k, p) {
		return k.run(dst, x, l, par, mul, w, cfg.Panel, scratch), nil
	}
	ni, no := l.InShape.Elems(), l.OutShape.Elems()
	in := tensor.Convert(tensor.NewFrom(l.InShape, tensor.NCHW, scratch[:ni]), x)
	out := tensor.NewFrom(l.OutShape, tensor.NCHW, scratch[ni:ni+no])
	return tensor.Convert(dst, k.run(out, in, l, par, mul, w, cfg.Panel, scratch[ni+no:])), nil
}
