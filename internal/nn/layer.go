// Package nn defines the network representation the whole system works
// on: typed layers, a DAG of layers in topological order, shape
// inference, and the arithmetic/memory accounting that the platform
// cost model consumes. Networks are built with a Builder and are
// immutable afterwards.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// OpKind identifies a layer's operation. The set matches the layer
// types that appear in the paper's nine benchmark networks.
type OpKind uint8

const (
	// OpInput is the synthetic source layer holding the network input.
	OpInput OpKind = iota
	// OpConv is a standard 2-D convolution (with bias).
	OpConv
	// OpDepthwiseConv is a depth-wise 2-D convolution (one filter per
	// channel, as in MobileNet). ArmCL ships code specialized for it.
	OpDepthwiseConv
	// OpFullyConnected is a dense layer (GEMV at batch 1). cuDNN
	// famously provides no primitive for it, which is why QS-DNN beats
	// cuDNN on AlexNet/VGG19.
	OpFullyConnected
	// OpPool is spatial max or average pooling.
	OpPool
	// OpReLU is the rectified-linear activation.
	OpReLU
	// OpBatchNorm is inference-mode batch normalization (scale+shift).
	OpBatchNorm
	// OpLRN is local response normalization (AlexNet, GoogleNet).
	OpLRN
	// OpSoftmax is the final probability normalization.
	OpSoftmax
	// OpConcat concatenates inputs along the channel axis (Inception).
	OpConcat
	// OpEltwiseAdd adds two same-shape inputs (ResNet shortcuts).
	OpEltwiseAdd
	// OpFlatten reshapes an NCHW activation into NC (before FC stacks).
	OpFlatten
	// OpDropout is inference-mode dropout: an identity pass-through
	// (Caffe deploy descriptions keep the layer; execution is a no-op).
	OpDropout
)

var opNames = map[OpKind]string{
	OpInput:          "Input",
	OpConv:           "Conv",
	OpDepthwiseConv:  "DepthwiseConv",
	OpFullyConnected: "FullyConnected",
	OpPool:           "Pool",
	OpReLU:           "ReLU",
	OpBatchNorm:      "BatchNorm",
	OpLRN:            "LRN",
	OpSoftmax:        "Softmax",
	OpConcat:         "Concat",
	OpEltwiseAdd:     "EltwiseAdd",
	OpFlatten:        "Flatten",
	OpDropout:        "Dropout",
}

// String returns the layer-kind name.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// AllOpKinds lists every operation kind (excluding OpInput).
func AllOpKinds() []OpKind {
	return []OpKind{
		OpConv, OpDepthwiseConv, OpFullyConnected, OpPool, OpReLU,
		OpBatchNorm, OpLRN, OpSoftmax, OpConcat, OpEltwiseAdd, OpFlatten,
		OpDropout,
	}
}

// PoolKind distinguishes max from average pooling.
type PoolKind uint8

const (
	// MaxPool takes the window maximum.
	MaxPool PoolKind = iota
	// AvgPool takes the window mean.
	AvgPool
)

// String returns the pool-kind name.
func (p PoolKind) String() string {
	if p == MaxPool {
		return "max"
	}
	return "avg"
}

// ConvParams carries the geometry of convolution-like layers
// (OpConv, OpDepthwiseConv) and pooling windows.
type ConvParams struct {
	// OutChannels is the number of output feature maps. For
	// depth-wise convolution it must equal the input channel count.
	OutChannels int
	// KernelH and KernelW are the filter spatial dimensions.
	KernelH, KernelW int
	// StrideH and StrideW are the filter strides.
	StrideH, StrideW int
	// PadH and PadW are the symmetric zero paddings.
	PadH, PadW int
	// Groups splits input and output channels into independent
	// convolution groups (AlexNet's conv2/4/5 use 2). 0 means 1.
	Groups int
}

// GroupCount returns Groups, treating the zero value as 1.
func (p ConvParams) GroupCount() int {
	if p.Groups <= 0 {
		return 1
	}
	return p.Groups
}

// Layer is one node of the network DAG. Layers are created through the
// Builder and must not be mutated after Build.
type Layer struct {
	// Name uniquely identifies the layer within its network.
	Name string
	// Kind is the operation the layer performs.
	Kind OpKind
	// Inputs are the indices (into Network.Layers) of producer layers.
	Inputs []int
	// Conv holds geometry for OpConv/OpDepthwiseConv/OpPool.
	Conv ConvParams
	// Pool selects max vs average pooling for OpPool.
	Pool PoolKind
	// GlobalPool makes OpPool cover the whole spatial extent.
	GlobalPool bool
	// OutUnits is the output width of OpFullyConnected.
	OutUnits int
	// LRNSize is the normalization window of OpLRN.
	LRNSize int
	// InShape and OutShape are filled in by shape inference. For
	// multi-input layers InShape is the shape of the first input.
	InShape, OutShape tensor.Shape
}

// String summarizes the layer.
func (l *Layer) String() string {
	return fmt.Sprintf("%s(%s %v->%v)", l.Name, l.Kind, l.InShape, l.OutShape)
}
