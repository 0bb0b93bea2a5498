package nn

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func buildChain(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder("chain", tensor.Shape{N: 1, C: 3, H: 32, W: 32})
	x := b.Conv("conv1", b.Input(), 16, 3, 1, 1)
	x = b.ReLU("relu1", x)
	x = b.Pool("pool1", x, MaxPool, 2, 2, 0)
	x = b.Flatten("flat", x)
	x = b.FullyConnected("fc", x, 10)
	b.Softmax("prob", x)
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestBuilderChainShapes(t *testing.T) {
	n := buildChain(t)
	want := map[string]tensor.Shape{
		"input": {N: 1, C: 3, H: 32, W: 32},
		"conv1": {N: 1, C: 16, H: 32, W: 32},
		"relu1": {N: 1, C: 16, H: 32, W: 32},
		"pool1": {N: 1, C: 16, H: 16, W: 16},
		"flat":  {N: 1, C: 4096, H: 1, W: 1},
		"fc":    {N: 1, C: 10, H: 1, W: 1},
		"prob":  {N: 1, C: 10, H: 1, W: 1},
	}
	for name, ws := range want {
		i := n.LayerIndex(name)
		if i < 0 {
			t.Fatalf("layer %q missing", name)
		}
		if got := n.Layers[i].OutShape; !got.Equal(ws) {
			t.Errorf("%s OutShape = %v, want %v", name, got, ws)
		}
	}
	if !n.IsChain() {
		t.Error("chain network should report IsChain")
	}
	if len(n.Layers) != 7 {
		t.Errorf("%d layers, want the input and 6 more", len(n.Layers))
	}
	if n.OutputLayer() != n.LayerIndex("prob") {
		t.Errorf("OutputLayer = %d", n.OutputLayer())
	}
}

func TestBuilderBranching(t *testing.T) {
	b := NewBuilder("branchy", tensor.Shape{N: 1, C: 8, H: 14, W: 14})
	x := b.Conv("stem", b.Input(), 16, 3, 1, 1)
	b1 := b.Conv("b1", x, 8, 1, 1, 0)
	b2 := b.Conv("b2", x, 24, 3, 1, 1)
	cat := b.Concat("cat", b1, b2)
	sc := b.Conv("proj", x, 32, 1, 1, 0)
	add := b.EltwiseAdd("add", cat, sc)
	b.ReLU("out", add)
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if n.IsChain() {
		t.Error("branchy network should not report IsChain")
	}
	ci := n.LayerIndex("cat")
	if got := n.Layers[ci].OutShape.C; got != 32 {
		t.Errorf("concat channels = %d, want 32", got)
	}
	// stem feeds b1, b2 and proj.
	stem, consumers := n.LayerIndex("stem"), 0
	for _, l := range n.Layers {
		if slices.Contains(l.Inputs, stem) {
			consumers++
		}
	}
	if consumers != 3 {
		t.Errorf("stem consumers = %d, want 3", consumers)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate name", func(t *testing.T) {
		b := NewBuilder("dup", tensor.Shape{N: 1, C: 1, H: 4, W: 4})
		b.ReLU("a", b.Input())
		b.ReLU("a", b.Input())
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("want duplicate-name error, got %v", err)
		}
	})
	t.Run("bad conv geometry", func(t *testing.T) {
		b := NewBuilder("bad", tensor.Shape{N: 1, C: 1, H: 2, W: 2})
		b.Conv("c", b.Input(), 4, 5, 1, 0) // kernel larger than input
		if _, err := b.Build(); err == nil {
			t.Error("want geometry error")
		}
	})
	t.Run("eltwise shape mismatch", func(t *testing.T) {
		b := NewBuilder("mm", tensor.Shape{N: 1, C: 2, H: 4, W: 4})
		a := b.Conv("c1", b.Input(), 4, 1, 1, 0)
		c := b.Conv("c2", b.Input(), 8, 1, 1, 0)
		b.EltwiseAdd("add", a, c)
		if _, err := b.Build(); err == nil {
			t.Error("want eltwise mismatch error")
		}
	})
	t.Run("concat needs two inputs", func(t *testing.T) {
		b := NewBuilder("cc", tensor.Shape{N: 1, C: 2, H: 4, W: 4})
		x := b.ReLU("r", b.Input())
		b.Concat("cat", x)
		if _, err := b.Build(); err == nil {
			t.Error("want concat arity error")
		}
	})
	t.Run("fc bad units", func(t *testing.T) {
		b := NewBuilder("fc", tensor.Shape{N: 1, C: 2, H: 1, W: 1})
		b.FullyConnected("fc", b.Input(), 0)
		if _, err := b.Build(); err == nil {
			t.Error("want fc units error")
		}
	})
}

func TestDepthwiseInfersChannels(t *testing.T) {
	b := NewBuilder("dw", tensor.Shape{N: 1, C: 32, H: 10, W: 10})
	x := b.DepthwiseConv("dw1", b.Input(), 3, 1, 1)
	b.ReLU("r", x)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	l := n.Layers[n.LayerIndex("dw1")]
	if l.Conv.OutChannels != 32 || l.OutShape.C != 32 {
		t.Errorf("depthwise channels = %d / %d, want 32", l.Conv.OutChannels, l.OutShape.C)
	}
}

func TestGlobalPool(t *testing.T) {
	b := NewBuilder("gp", tensor.Shape{N: 1, C: 7, H: 13, W: 9})
	b.GlobalPool("gpool", b.Input(), AvgPool)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := n.Layers[n.LayerIndex("gpool")].OutShape
	if !got.Equal(tensor.Shape{N: 1, C: 7, H: 1, W: 1}) {
		t.Errorf("global pool shape = %v", got)
	}
}

func TestConvOutDim(t *testing.T) {
	tests := []struct {
		in, k, s, p, want int
	}{
		{224, 7, 2, 3, 112}, // ResNet stem
		{227, 11, 4, 0, 55}, // AlexNet conv1
		{32, 5, 1, 0, 28},   // LeNet conv1
		{14, 3, 1, 1, 14},   // same padding
	}
	for _, tc := range tests {
		if got := convOutDim(tc.in, tc.k, tc.s, tc.p); got != tc.want {
			t.Errorf("convOutDim(%d,%d,%d,%d) = %d, want %d", tc.in, tc.k, tc.s, tc.p, got, tc.want)
		}
	}
}

func TestFLOPsAndWeights(t *testing.T) {
	b := NewBuilder("f", tensor.Shape{N: 1, C: 3, H: 8, W: 8})
	x := b.Conv("conv", b.Input(), 4, 3, 1, 1) // out 1x4x8x8
	x = b.Flatten("flat", x)
	b.FullyConnected("fc", x, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	conv := n.Layers[n.LayerIndex("conv")]
	// macs = 4*8*8*3*3*3 = 6912; flops = 2*6912 + 256 bias adds.
	if got := conv.FLOPs(); got != 2*6912+256 {
		t.Errorf("conv FLOPs = %d", got)
	}
	if got := conv.WeightCount(); got != 4*3*3*3+4 {
		t.Errorf("conv weights = %d", got)
	}
	fc := n.Layers[n.LayerIndex("fc")]
	if got := fc.FLOPs(); got != 2*256*10+10 {
		t.Errorf("fc FLOPs = %d", got)
	}
	if got := fc.WeightCount(); got != 256*10+10 {
		t.Errorf("fc weights = %d", got)
	}
	if n.TotalFLOPs() != conv.FLOPs()+fc.FLOPs() {
		t.Error("TotalFLOPs mismatch")
	}
	if n.TotalWeights() != conv.WeightCount()+fc.WeightCount() {
		t.Error("TotalWeights mismatch")
	}
	if conv.Traffic() <= 0 || fc.Traffic() <= 0 {
		t.Error("traffic should be positive")
	}
}

func TestOpKindString(t *testing.T) {
	if OpConv.String() != "Conv" || OpDepthwiseConv.String() != "DepthwiseConv" {
		t.Error("op kind names wrong")
	}
	if !strings.Contains(OpKind(200).String(), "200") {
		t.Error("unknown op kind should include number")
	}
	if MaxPool.String() != "max" || AvgPool.String() != "avg" {
		t.Error("pool kind names wrong")
	}
	if len(AllOpKinds()) != 12 {
		t.Errorf("AllOpKinds = %d entries", len(AllOpKinds()))
	}
}

func TestLayerIndexMissing(t *testing.T) {
	n := buildChain(t)
	if n.LayerIndex("nope") != -1 {
		t.Error("missing layer should return -1")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on error")
		}
	}()
	b := NewBuilder("bad", tensor.Shape{N: 1, C: 1, H: 1, W: 1})
	b.Conv("c", b.Input(), 1, 3, 1, 0)
	b.MustBuild()
}

func TestGroupedConvValidation(t *testing.T) {
	b := NewBuilder("g", tensor.Shape{N: 1, C: 6, H: 8, W: 8})
	b.Conv2D("bad", b.Input(), ConvParams{
		OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 4,
	})
	if _, err := b.Build(); err == nil {
		t.Error("groups not dividing input channels should fail")
	}

	b2 := NewBuilder("g2", tensor.Shape{N: 1, C: 8, H: 8, W: 8})
	b2.Conv2D("ok", b2.Input(), ConvParams{
		OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2,
	})
	n, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	l := n.Layers[n.LayerIndex("ok")]
	// Weight count: OC * (C/g) * K * K + bias = 4*4*9 + 4.
	if got := l.WeightCount(); got != 4*4*9+4 {
		t.Errorf("grouped weights = %d", got)
	}
	// FLOPs: 2 * OC*OH*OW * (C/g)*K*K + bias adds.
	if got := l.FLOPs(); got != 2*(4*8*8)*(4*9)+4*8*8 {
		t.Errorf("grouped FLOPs = %d", got)
	}
	if l.Conv.GroupCount() != 2 {
		t.Errorf("GroupCount = %d", l.Conv.GroupCount())
	}
}
