package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Network is an immutable DAG of layers in topological order (the
// Builder only lets a layer consume previously-declared layers, so the
// declaration order is a valid topological order). Layer 0 is always
// the OpInput layer.
type Network struct {
	// Name identifies the architecture (e.g. "mobilenet-v1").
	Name string
	// Layers holds every layer in topological order.
	Layers []*Layer
	// InputShape is the shape fed to layer 0.
	InputShape tensor.Shape

	byName    map[string]int
	consumers [][]int
}

// Len returns the number of layers including the input layer.
func (n *Network) Len() int { return len(n.Layers) }

// LayerIndex returns the index of the named layer, or -1.
func (n *Network) LayerIndex(name string) int {
	if i, ok := n.byName[name]; ok {
		return i
	}
	return -1
}

// OutputLayer returns the index of the final layer (no consumers). If
// several layers have no consumers the last one in topological order is
// returned.
func (n *Network) OutputLayer() int {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if len(n.consumers[i]) == 0 {
			return i
		}
	}
	return len(n.Layers) - 1
}

// IsChain reports whether the network is a pure chain: every layer has
// exactly one input (its predecessor) and at most one consumer. Chain
// networks admit an exact dynamic-programming optimum, which the test
// suite uses to certify the RL search.
func (n *Network) IsChain() bool {
	for i, l := range n.Layers {
		if i == 0 {
			continue
		}
		if len(l.Inputs) != 1 || l.Inputs[0] != i-1 {
			return false
		}
		if len(n.consumers[i]) > 1 {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: unique names, input indices in
// range and topologically ordered, shapes inferred and positive.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("nn: network %q has no layers", n.Name)
	}
	if n.Layers[0].Kind != OpInput {
		return fmt.Errorf("nn: network %q layer 0 is %v, want Input", n.Name, n.Layers[0].Kind)
	}
	seen := make(map[string]bool, len(n.Layers))
	for i, l := range n.Layers {
		if seen[l.Name] {
			return fmt.Errorf("nn: duplicate layer name %q", l.Name)
		}
		seen[l.Name] = true
		if i > 0 && len(l.Inputs) == 0 {
			return fmt.Errorf("nn: layer %q has no inputs", l.Name)
		}
		for _, in := range l.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("nn: layer %q input index %d out of topological order", l.Name, in)
			}
		}
		if !l.OutShape.Valid() {
			return fmt.Errorf("nn: layer %q has invalid output shape %v", l.Name, l.OutShape)
		}
	}
	return nil
}

// Builder incrementally constructs a Network. Each method appends one
// layer consuming previously-added layers (referenced by the returned
// handles) and returns the new layer's handle. Build performs shape
// inference and validation; errors are accumulated and reported there,
// so model-zoo builders can be written without per-call error checks.
type Builder struct {
	net  *Network
	errs []error
}

// NewBuilder starts a network with the given name and input shape.
// The input layer is created implicitly as handle 0.
func NewBuilder(name string, input tensor.Shape) *Builder {
	b := &Builder{net: &Network{
		Name:       name,
		InputShape: input,
		byName:     map[string]int{},
	}}
	b.add(&Layer{Name: "input", Kind: OpInput, InShape: input, OutShape: input})
	return b
}

// Input returns the handle of the implicit input layer.
func (b *Builder) Input() int { return 0 }

func (b *Builder) add(l *Layer) int {
	if _, dup := b.net.byName[l.Name]; dup {
		b.errs = append(b.errs, fmt.Errorf("nn: duplicate layer name %q", l.Name))
	}
	idx := len(b.net.Layers)
	b.net.byName[l.Name] = idx
	b.net.Layers = append(b.net.Layers, l)
	return idx
}

func (b *Builder) checkInput(name string, in int) {
	if in < 0 || in >= len(b.net.Layers) {
		b.errs = append(b.errs, fmt.Errorf("nn: layer %q references unknown input %d", name, in))
	}
}

// Conv appends a standard convolution with a square kernel.
func (b *Builder) Conv(name string, in, outCh, kernel, stride, pad int) int {
	return b.Conv2D(name, in, ConvParams{
		OutChannels: outCh,
		KernelH:     kernel, KernelW: kernel,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
	})
}

// Conv2D appends a standard convolution with explicit geometry.
func (b *Builder) Conv2D(name string, in int, p ConvParams) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpConv, Inputs: []int{in}, Conv: p})
}

// DepthwiseConv appends a depth-wise convolution with a square kernel.
// OutChannels is inferred from the input during shape inference.
func (b *Builder) DepthwiseConv(name string, in, kernel, stride, pad int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpDepthwiseConv, Inputs: []int{in}, Conv: ConvParams{
		KernelH: kernel, KernelW: kernel,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
	}})
}

// FullyConnected appends a dense layer with outUnits outputs.
func (b *Builder) FullyConnected(name string, in, outUnits int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpFullyConnected, Inputs: []int{in}, OutUnits: outUnits})
}

// Pool appends a pooling layer with a square window.
func (b *Builder) Pool(name string, in int, kind PoolKind, kernel, stride, pad int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpPool, Inputs: []int{in}, Pool: kind, Conv: ConvParams{
		KernelH: kernel, KernelW: kernel,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
	}})
}

// GlobalPool appends a pooling layer covering the full spatial extent.
func (b *Builder) GlobalPool(name string, in int, kind PoolKind) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpPool, Inputs: []int{in}, Pool: kind, GlobalPool: true})
}

// ReLU appends a rectified-linear activation.
func (b *Builder) ReLU(name string, in int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpReLU, Inputs: []int{in}})
}

// BatchNorm appends an inference-mode batch normalization.
func (b *Builder) BatchNorm(name string, in int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpBatchNorm, Inputs: []int{in}})
}

// LRN appends a local response normalization with window size.
func (b *Builder) LRN(name string, in, size int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpLRN, Inputs: []int{in}, LRNSize: size})
}

// Softmax appends the final probability normalization.
func (b *Builder) Softmax(name string, in int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpSoftmax, Inputs: []int{in}})
}

// Concat appends a channel-axis concatenation of the given inputs.
func (b *Builder) Concat(name string, ins ...int) int {
	for _, in := range ins {
		b.checkInput(name, in)
	}
	if len(ins) < 2 {
		b.errs = append(b.errs, fmt.Errorf("nn: concat %q needs >= 2 inputs", name))
	}
	return b.add(&Layer{Name: name, Kind: OpConcat, Inputs: append([]int(nil), ins...)})
}

// EltwiseAdd appends an element-wise addition of two same-shape inputs.
func (b *Builder) EltwiseAdd(name string, a, c int) int {
	b.checkInput(name, a)
	b.checkInput(name, c)
	return b.add(&Layer{Name: name, Kind: OpEltwiseAdd, Inputs: []int{a, c}})
}

// Dropout appends an inference-mode dropout (identity pass-through).
func (b *Builder) Dropout(name string, in int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpDropout, Inputs: []int{in}})
}

// Flatten appends a reshape of NCHW into N×(CHW)×1×1.
func (b *Builder) Flatten(name string, in int) int {
	b.checkInput(name, in)
	return b.add(&Layer{Name: name, Kind: OpFlatten, Inputs: []int{in}})
}

// Build runs shape inference, computes the consumer lists, validates
// the network and returns it. The Builder must not be reused after.
func (b *Builder) Build() (*Network, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	n := b.net
	if err := inferShapes(n); err != nil {
		return nil, err
	}
	n.consumers = make([][]int, len(n.Layers))
	for i, l := range n.Layers {
		for _, in := range l.Inputs {
			n.consumers[in] = append(n.consumers[in], i)
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// MustBuild is Build but panics on error; intended for the static
// model zoo where a failure is a programming bug.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}
