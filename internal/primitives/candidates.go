package primitives

import "repro/internal/nn"

// Mode restricts which processors the search may use: the paper's
// Table II reports separate "CPU" and "GPGPU" columns. GPGPU mode
// keeps CPU primitives available — which is how QS-DNN discovers that
// LeNet-5's fastest "GPGPU" configuration is pure CPU.
type Mode uint8

const (
	// ModeCPU allows only CPU primitives.
	ModeCPU Mode = iota
	// ModeGPGPU allows both CPU and GPU primitives.
	ModeGPGPU
)

// String returns the mode name.
func (m Mode) String() string {
	if m == ModeCPU {
		return "CPU"
	}
	return "GPGPU"
}

// isWinogradable reports whether a conv layer fits F(2x2,3x3):
// 3x3 kernel, stride 1.
func isWinogradable(l *nn.Layer) bool {
	p := l.Conv
	return p.KernelH == 3 && p.KernelW == 3 && p.StrideH == 1 && p.StrideW == 1
}

// isFFTable reports whether a conv layer fits NNPACK's FFT path:
// stride 1 with a kernel larger than the Winograd tile (e.g. the 5x5
// Inception branches or AlexNet's conv2).
func isFFTable(l *nn.Layer) bool {
	p := l.Conv
	return p.StrideH == 1 && p.StrideW == 1 &&
		(p.KernelH > 3 || p.KernelW > 3) &&
		p.KernelH <= 16 && p.KernelW <= 16
}

// Candidates returns the primitives able to implement the layer under
// the given mode, in registry order. Every layer supported by the
// engine has at least the Vanilla candidate (Vanilla "contains all
// layers that a DNN may use"); OpInput returns nil.
func Candidates(l *nn.Layer, mode Mode) []*Primitive {
	var out []*Primitive
	eachCandidate(l, mode, func(p *Primitive) { out = append(out, p) })
	return out
}

// CanImplement reports whether p is one of Candidates(l, mode), without
// building the candidate slice: the engine asks it of every layer of
// every run.
func CanImplement(l *nn.Layer, mode Mode, p *Primitive) bool {
	found := false
	eachCandidate(l, mode, func(c *Primitive) { found = found || c == p })
	return found
}

// eachCandidate calls yield with every candidate of the layer under the
// mode, in registry order: the one definition of the candidate sets.
func eachCandidate(l *nn.Layer, mode Mode, yield func(*Primitive)) {
	add := func(ps ...*Primitive) {
		for _, p := range ps {
			if mode == ModeCPU && p.Proc == GPU {
				continue
			}
			yield(p)
		}
	}
	switch l.Kind {
	case nn.OpInput:
		return
	case nn.OpConv:
		if l.Conv.GroupCount() > 1 {
			// Grouped convolutions (AlexNet conv2/4/5): only the
			// direct code and the per-group im2col GEMM paths exist;
			// Winograd/FFT/kn2row implementations do not handle
			// grouping.
			add(PVanilla, PAtlasIm2col, POpenIm2col, PSparseConv, PCuDNNConv)
			break
		}
		add(PVanilla)
		add(PAtlasIm2col, PAtlasIm2row, PAtlasKn2row)
		add(POpenIm2col, POpenIm2row, POpenKn2row)
		switch {
		case isWinogradable(l):
			add(PNNPackWinograd, PArmCLWinograd)
		case isFFTable(l):
			add(PNNPackGemm, PNNPackFFT)
		default:
			add(PNNPackGemm)
		}
		add(PArmCLGemm, PSparseConv)
		if isWinogradable(l) {
			add(PCuDNNWino)
		}
		add(PCuDNNConv)
	case nn.OpDepthwiseConv:
		add(PVanilla, POpenIm2col, PArmCLDepth, PCuDNNDepth)
	case nn.OpFullyConnected:
		// cuDNN deliberately absent: it has no FC primitive.
		add(PVanilla, PAtlasGemv, POpenGemv, PSparseFC, PCuBLASGemv)
	case nn.OpPool, nn.OpReLU, nn.OpSoftmax:
		add(PVanilla, PNNPackOp, PCuDNNOp)
	case nn.OpBatchNorm, nn.OpLRN, nn.OpEltwiseAdd, nn.OpConcat:
		add(PVanilla, PCuDNNOp)
	case nn.OpFlatten, nn.OpDropout:
		add(PVanilla, PCuDNNOp)
	default:
		add(PVanilla)
	}
}

// MaxCandidates returns the largest candidate-set size over the
// network's searchable layers — the paper reports 13 as the maximum
// number of primitive variants for a layer.
func MaxCandidates(n *nn.Network, mode Mode) int {
	maxN := 0
	for _, l := range n.Layers {
		if c := len(Candidates(l, mode)); c > maxN {
			maxN = c
		}
	}
	return maxN
}

// SpaceSize returns the design-space size, i.e. the product of
// candidate-set sizes over all searchable layers, as a float64 (the
// worst case the paper writes as NI^NL grows past int64 quickly).
func SpaceSize(n *nn.Network, mode Mode) float64 {
	size := 1.0
	for _, l := range n.Layers {
		if l.Kind == nn.OpInput {
			continue
		}
		size *= float64(len(Candidates(l, mode)))
	}
	return size
}
