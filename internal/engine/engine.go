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

	"repro/internal/gemm"
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
	// Output is the final layer's activation (host layout, NCHW).
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
// the network's input shape.
func (e *Engine) Run(assignment []primitives.ID, input *tensor.Tensor) (*RunResult, error) {
	net := e.Net
	if len(assignment) != net.Len() {
		return nil, fmt.Errorf("engine: assignment has %d entries, want %d", len(assignment), net.Len())
	}
	if !input.Shape().Equal(net.InputShape) {
		return nil, fmt.Errorf("engine: input shape %v, want %v", input.Shape(), net.InputShape)
	}
	res := &RunResult{
		LayerSeconds:   make([]float64, net.Len()),
		PenaltySeconds: make([]float64, net.Len()),
	}
	acts := make([]*tensor.Tensor, net.Len())
	acts[0] = input.ToLayout(tensor.NCHW)
	start := time.Now()
	for i := 1; i < net.Len(); i++ {
		l := net.Layers[i]
		p := primitives.ByID(assignment[i])
		if err := checkExecutable(l, p); err != nil {
			return nil, err
		}
		// Real layout conversions at incompatible edges, timed as the
		// consumer's penalty — exactly the compatibility layers of
		// the paper's Fig. 3.
		inputs := make([]*tensor.Tensor, len(l.Inputs))
		for k, src := range l.Inputs {
			t0 := time.Now()
			inputs[k] = acts[src].ToLayout(p.Layout)
			res.PenaltySeconds[i] += time.Since(t0).Seconds()
		}
		t0 := time.Now()
		out, err := e.exec(i, l, p, inputs)
		if err != nil {
			return nil, err
		}
		res.LayerSeconds[i] = time.Since(t0).Seconds()
		acts[i] = out
	}
	outIdx := net.OutputLayer()
	res.Output = acts[outIdx].ToLayout(tensor.NCHW)
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
	for _, c := range primitives.Candidates(l, primitives.ModeCPU) {
		if c == target {
			return nil
		}
	}
	return fmt.Errorf("engine: primitive %s cannot implement layer %s (%v)", p.Name, l.Name, l.Kind)
}

// exec dispatches one layer to the kernel implementing the primitive.
// Inputs are already in p.Layout. A tuned twin runs as its base under
// the config recorded for it (the zero config when none was), so plain
// layers and twins share one dispatch.
func (e *Engine) exec(i int, l *nn.Layer, p *primitives.Primitive, in []*tensor.Tensor) (*tensor.Tensor, error) {
	var cfg kernels.ConvTuned
	if p.Tuned {
		cfg = e.tuned[tunedKey{i, p.Idx}]
		p = primitives.ByID(p.Base)
	}
	return e.execCfg(i, l, p, in, cfg)
}

// execCfg executes layer i under a non-twin primitive, with cfg
// parameterizing its conv or depth-wise kernel.
func (e *Engine) execCfg(i int, l *nn.Layer, p *primitives.Primitive, in []*tensor.Tensor, cfg kernels.ConvTuned) (*tensor.Tensor, error) {
	x := in[0]
	par := e.params[i]
	switch l.Kind {
	case nn.OpConv, nn.OpDepthwiseConv:
		return e.execConv(l, p, x, par, cfg)
	case nn.OpFullyConnected:
		if p.Lib == primitives.Sparse {
			return kernels.FCSparse(x, par.csr, par.bias), nil
		}
		return kernels.FCGemv(x, par.w, par.bias, l.OutUnits), nil
	case nn.OpPool:
		if l.Pool == nn.MaxPool {
			return kernels.MaxPool(x, l.Conv), nil
		}
		return kernels.AvgPool(x, l.Conv), nil
	case nn.OpReLU:
		return kernels.ReLU(x), nil
	case nn.OpBatchNorm:
		return kernels.BatchNorm(x, par.scale, par.shift), nil
	case nn.OpLRN:
		return kernels.LRN(x, l.LRNSize), nil
	case nn.OpSoftmax:
		return kernels.Softmax(x), nil
	case nn.OpConcat:
		return kernels.Concat(in), nil
	case nn.OpEltwiseAdd:
		return kernels.EltwiseAdd(in[0], in[1]), nil
	case nn.OpFlatten:
		return kernels.Flatten(x), nil
	case nn.OpDropout:
		return x, nil // inference dropout is the identity
	}
	return nil, fmt.Errorf("engine: layer %s has unsupported kind %v", l.Name, l.Kind)
}

// execConv dispatches the convolution and depth-wise variants.
// NCHW-native fast kernels used under an NHWC-declared primitive
// convert internally; that cost is the primitive's own business and
// lands in its layer time.
//
// cfg is the layer's tuned config, zero for plain primitives. Kernels
// run on cfg.Workers goroutines, or on the engine's Parallelism when
// cfg.Workers is 0 or less; Vanilla and Sparse always run on one. The
// packed GEMM runs under cfg.Block, which a zero Block makes
// bit-identical to gemm.Parallel. Panel applies to the im2col and
// im2row lowerings only.
func (e *Engine) execConv(l *nn.Layer, p *primitives.Primitive, x *tensor.Tensor, par layerParams, cfg kernels.ConvTuned) (*tensor.Tensor, error) {
	w := cfg.Workers
	if w <= 0 {
		w = e.workers
	}
	if l.Kind == nn.OpDepthwiseConv {
		switch {
		case p.Lib == primitives.Vanilla:
			return kernels.DepthwiseDirect(x, par.w, par.bias, l.Conv, 1), nil
		case p.Layout == tensor.NHWC:
			return kernels.DepthwiseNHWC(x, par.w, par.bias, l.Conv, w), nil
		}
		return kernels.DepthwiseDirect(x, par.w, par.bias, l.Conv, w), nil
	}
	// Tuned libraries get the packed parallel GEMM (the tuned-BLAS
	// stand-in); ATLAS and Vanilla keep the naive one — their role in
	// the paper is the slow reference BLAS.
	mul := kernels.Gemm(func(m, n, k int, a, b, c []float32) {
		gemm.ParallelCfg(m, n, k, a, b, c, w, cfg.Block)
	})
	if p.Lib == primitives.ATLAS || p.Lib == primitives.Vanilla {
		mul = gemm.Naive
	}
	if kernels.IsGrouped(l.Conv) {
		switch p.Lib {
		case primitives.Vanilla:
			return kernels.ConvGroupedDirect(x, par.w, par.bias, l.Conv, 1), nil
		case primitives.Sparse:
			// Sparse weights for grouped convs run the direct grouped
			// path (the zeros contribute nothing either way).
			return kernels.ConvGroupedDirect(x, par.w, par.bias, l.Conv, 1), nil
		default:
			return kernels.ConvGroupedIm2col(x, par.w, par.bias, l.Conv, mul, w), nil
		}
	}
	switch {
	case p.Lib == primitives.Vanilla:
		return kernels.ConvDirect(x, par.w, par.bias, l.Conv, 1), nil
	case p.Lib == primitives.Sparse:
		return kernels.ConvSparse(x, par.csr, par.bias, l.Conv), nil
	case p.Algo == primitives.WinogradAlgo:
		nchw := x.ToLayout(tensor.NCHW)
		out := kernels.ConvWinograd(nchw, par.w, par.bias, l.Conv, w)
		return out.ToLayout(p.Layout), nil
	case p.Algo == primitives.FFTAlgo:
		nchw := x.ToLayout(tensor.NCHW)
		out := kernels.ConvFFT(nchw, par.w, par.bias, l.Conv, w)
		return out.ToLayout(p.Layout), nil
	case p.Layout == tensor.NHWC: // nnpack-gemm / armcl-gemm
		return kernels.ConvDirectNHWC(x, par.w, par.bias, l.Conv, w), nil
	case p.Lower == primitives.Im2col:
		return kernels.ConvIm2col(x, par.w, par.bias, l.Conv, mul, w, cfg.Panel), nil
	case p.Lower == primitives.Im2row:
		return kernels.ConvIm2row(x, par.w, par.bias, l.Conv, mul, w, cfg.Panel), nil
	case p.Lower == primitives.Kn2row:
		return kernels.ConvKn2row(x, par.w, par.bias, l.Conv, mul, w), nil
	}
	return nil, fmt.Errorf("engine: no conv kernel for %s", p.Name)
}
