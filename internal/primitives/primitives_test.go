package primitives

import (
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func layerOfKind(t *testing.T, kind nn.OpKind) *nn.Layer {
	t.Helper()
	b := nn.NewBuilder("probe", tensor.Shape{N: 1, C: 8, H: 14, W: 14})
	x := b.Input()
	switch kind {
	case nn.OpConv:
		x = b.Conv("l", x, 16, 3, 1, 1)
	case nn.OpDepthwiseConv:
		x = b.DepthwiseConv("l", x, 3, 1, 1)
	case nn.OpFullyConnected:
		x = b.Flatten("f", x)
		x = b.FullyConnected("l", x, 10)
	case nn.OpPool:
		x = b.Pool("l", x, nn.MaxPool, 2, 2, 0)
	case nn.OpReLU:
		x = b.ReLU("l", x)
	case nn.OpBatchNorm:
		x = b.BatchNorm("l", x)
	case nn.OpLRN:
		x = b.LRN("l", x, 5)
	case nn.OpSoftmax:
		x = b.Softmax("l", x)
	case nn.OpConcat:
		y := b.ReLU("r", x)
		x = b.Concat("l", x, y)
	case nn.OpEltwiseAdd:
		y := b.ReLU("r", x)
		x = b.EltwiseAdd("l", x, y)
	case nn.OpFlatten:
		x = b.Flatten("l", x)
	case nn.OpDropout:
		x = b.Dropout("l", x)
	}
	net := b.MustBuild()
	return net.Layers[net.LayerIndex("l")]
}

func TestRegistryUnique(t *testing.T) {
	seen := map[string]bool{}
	for i, p := range Registry() {
		if int(p.Idx) != i {
			t.Errorf("%s: Idx %d != position %d", p.Name, p.Idx, i)
		}
		if seen[p.Name] {
			t.Errorf("duplicate primitive name %q", p.Name)
		}
		seen[p.Name] = true
		got, ok := ByName(p.Name)
		if !ok || got != p {
			t.Errorf("ByName(%q) lookup failed", p.Name)
		}
		if ByID(p.Idx) != p {
			t.Errorf("ByID(%d) lookup failed", p.Idx)
		}
	}
	if Count() != len(Registry()) {
		t.Error("Count mismatch")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should miss on unknown name")
	}
}

func TestByIDPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ByID out of range should panic")
		}
	}()
	ByID(ID(Count()))
}

func TestEveryLayerKindHasVanilla(t *testing.T) {
	for _, kind := range nn.AllOpKinds() {
		l := layerOfKind(t, kind)
		cands := Candidates(l, ModeCPU)
		if len(cands) == 0 {
			t.Errorf("%v: no candidates", kind)
			continue
		}
		found := false
		for _, p := range cands {
			if p.Lib == Vanilla {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: Vanilla missing from candidates", kind)
		}
	}
}

func TestInputHasNoCandidates(t *testing.T) {
	b := nn.NewBuilder("p", tensor.Shape{N: 1, C: 1, H: 2, W: 2})
	b.ReLU("r", b.Input())
	net := b.MustBuild()
	if got := Candidates(net.Layers[0], ModeGPGPU); got != nil {
		t.Errorf("input candidates = %v", got)
	}
}

func TestCPUModeExcludesGPU(t *testing.T) {
	for _, kind := range nn.AllOpKinds() {
		l := layerOfKind(t, kind)
		for _, p := range Candidates(l, ModeCPU) {
			if p.Proc == GPU {
				t.Errorf("%v: GPU primitive %s in CPU mode", kind, p.Name)
			}
		}
	}
}

func TestConv3x3HasThirteenVariants(t *testing.T) {
	l := layerOfKind(t, nn.OpConv)
	if got := len(Candidates(l, ModeGPGPU)); got != 13 {
		t.Errorf("3x3 s1 conv candidates = %d, want 13 (paper's maximum)", got)
	}
}

func TestMaxCandidatesIsThirteen(t *testing.T) {
	// The paper: "the maximum number of different primitives for a
	// layer, taking all the variants, is 13".
	for _, name := range models.TableIINetworks() {
		n := models.MustBuild(name)
		if got := MaxCandidates(n, ModeGPGPU); got > 13 {
			t.Errorf("%s: max candidates = %d > 13", name, got)
		}
	}
	if got := MaxCandidates(models.MustBuild("vgg19"), ModeGPGPU); got != 13 {
		t.Errorf("vgg19 max candidates = %d, want 13", got)
	}
}

func TestFCHasNoCuDNN(t *testing.T) {
	l := layerOfKind(t, nn.OpFullyConnected)
	for _, p := range Candidates(l, ModeGPGPU) {
		if p.Lib == CuDNN {
			t.Errorf("cuDNN must not offer an FC primitive (got %s)", p.Name)
		}
	}
	// But cuBLAS GEMV must be there.
	found := false
	for _, p := range Candidates(l, ModeGPGPU) {
		if p.Lib == CuBLAS {
			found = true
		}
	}
	if !found {
		t.Error("cuBLAS GEMV missing from FC candidates")
	}
}

func TestWinogradOnlyFor3x3Stride1(t *testing.T) {
	b := nn.NewBuilder("p", tensor.Shape{N: 1, C: 8, H: 14, W: 14})
	b.Conv("c5", b.Input(), 16, 5, 1, 2)
	b.Conv("c3s2", b.Input(), 16, 3, 2, 1)
	b.Conv("c3s1", b.Input(), 16, 3, 1, 1)
	net := b.MustBuild()
	for _, name := range []string{"c5", "c3s2"} {
		for _, p := range Candidates(net.Layers[net.LayerIndex(name)], ModeGPGPU) {
			if p.Algo == WinogradAlgo {
				t.Errorf("%s: winograd offered for non-3x3s1 conv", name)
			}
		}
	}
	hasWino := false
	for _, p := range Candidates(net.Layers[net.LayerIndex("c3s1")], ModeGPGPU) {
		if p.Algo == WinogradAlgo {
			hasWino = true
		}
	}
	if !hasWino {
		t.Error("3x3 s1 conv should offer winograd")
	}
}

func TestFFTOnlyForLargeStride1Kernels(t *testing.T) {
	b := nn.NewBuilder("p", tensor.Shape{N: 1, C: 8, H: 14, W: 14})
	b.Conv("c5s1", b.Input(), 16, 5, 1, 2)   // FFT applies
	b.Conv("c3s1", b.Input(), 16, 3, 1, 1)   // winograd instead
	b.Conv("c5s2", b.Input(), 16, 5, 2, 2)   // neither (stride 2)
	b.Conv("c11s1", b.Input(), 16, 11, 1, 5) // FFT applies
	net := b.MustBuild()
	hasFFT := func(name string) bool {
		for _, p := range Candidates(net.Layers[net.LayerIndex(name)], ModeCPU) {
			if p.Algo == FFTAlgo {
				return true
			}
		}
		return false
	}
	if !hasFFT("c5s1") || !hasFFT("c11s1") {
		t.Error("stride-1 large-kernel convs should offer nnpack-fft")
	}
	if hasFFT("c3s1") {
		t.Error("3x3 s1 conv should use winograd, not fft")
	}
	if hasFFT("c5s2") {
		t.Error("strided conv should not offer fft")
	}
}

func TestDepthwiseHasArmCL(t *testing.T) {
	l := layerOfKind(t, nn.OpDepthwiseConv)
	found := false
	for _, p := range Candidates(l, ModeGPGPU) {
		if p == PArmCLDepth {
			found = true
		}
	}
	if !found {
		t.Error("ArmCL depthwise primitive missing")
	}
}

func TestSpaceSizeGrowsWithNetwork(t *testing.T) {
	small := SpaceSize(models.MustBuild("lenet5"), ModeGPGPU)
	big := SpaceSize(models.MustBuild("googlenet"), ModeGPGPU)
	if small <= 1 {
		t.Errorf("lenet5 space = %v", small)
	}
	if big <= small {
		t.Errorf("googlenet space %v should exceed lenet5 %v", big, small)
	}
	cpu := SpaceSize(models.MustBuild("lenet5"), ModeCPU)
	if cpu >= small {
		t.Errorf("CPU-only space %v should be smaller than GPGPU %v", cpu, small)
	}
}

// TestLibrarySupports pins which libraries have a candidate for a conv
// and an FC layer: cuDNN has a conv but no FC primitive, cuBLAS no conv,
// and ArmCL a CPU conv.
func TestLibrarySupports(t *testing.T) {
	conv := layerOfKind(t, nn.OpConv)
	fc := layerOfKind(t, nn.OpFullyConnected)
	supports := func(lib Library, l *nn.Layer, mode Mode) bool {
		return slices.ContainsFunc(Candidates(l, mode), func(p *Primitive) bool { return p.Lib == lib })
	}
	for _, tc := range []struct {
		lib  Library
		l    *nn.Layer
		mode Mode
		want bool
	}{
		{CuDNN, conv, ModeGPGPU, true},
		{CuDNN, fc, ModeGPGPU, false},
		{CuBLAS, conv, ModeGPGPU, false},
		{ArmCL, conv, ModeCPU, true},
	} {
		if got := supports(tc.lib, tc.l, tc.mode); got != tc.want {
			t.Errorf("%v has a candidate for %s under %v: %v, want %v", tc.lib, tc.l.Name, tc.mode, got, tc.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Error("processor names")
	}
	if ModeCPU.String() != "CPU" || ModeGPGPU.String() != "GPGPU" {
		t.Error("mode names")
	}
	if Vanilla.String() != "Vanilla" || CuDNN.String() != "cuDNN" {
		t.Error("library names")
	}
	if WinogradAlgo.String() != "winograd" || Im2col.String() != "im2col" {
		t.Error("algo/lowering names")
	}
	if len(AllLibraries()) != 8 {
		t.Error("library count")
	}
}
