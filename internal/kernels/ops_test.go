package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestMaxPoolKnown(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 1, H: 4, W: 4}, tensor.NCHW, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	p := nn.ConvParams{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	out := MaxPool(nil, in, p)
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestMaxPoolPaddingIgnored(t *testing.T) {
	// All-negative input with padding: padded zeros must not win.
	in := tensor.New(tensor.Shape{N: 1, C: 1, H: 2, W: 2}, tensor.NCHW)
	in.Fill(-5)
	p := nn.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	out := MaxPool(nil, in, p)
	for i, v := range out.Data() {
		if v != -5 {
			t.Errorf("out[%d] = %v, want -5 (padding leaked into max)", i, v)
		}
	}
}

func TestAvgPoolKnown(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 1, H: 2, W: 2}, tensor.NCHW, []float32{1, 2, 3, 4})
	p := nn.ConvParams{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	out := AvgPool(nil, in, p)
	if out.Data()[0] != 2.5 {
		t.Errorf("avg = %v, want 2.5", out.Data()[0])
	}
}

func TestReLU(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 1, H: 1, W: 4}, tensor.NCHW, []float32{-1, 0, 2, -3})
	out := ReLU(nil, in)
	want := []float32{0, 0, 2, 0}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("relu[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
	// Input untouched.
	if in.Data()[0] != -1 {
		t.Error("ReLU mutated its input")
	}
}

// TestReLUEdgeValues pins the values ReLU must pass through with their
// bits unchanged: -0 stays -0 and NaN stays NaN (a rewrite that keeps
// v > 0 instead of zeroing v < 0 flips -0 to +0 and NaN to 0).
func TestReLUEdgeValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	cases := []struct{ in, want float32 }{
		{negZero, negZero},
		{0, 0},
		{float32(math.NaN()), float32(math.NaN())},
		{math.Float32frombits(0xffc00001), math.Float32frombits(0xffc00001)}, // negative NaN
		{float32(math.Inf(1)), float32(math.Inf(1))},
		{float32(math.Inf(-1)), 0},
		{math.Float32frombits(0x80000001), 0}, // smallest negative subnormal
		{math.Float32frombits(0x00000001), math.Float32frombits(0x00000001)},
		{-math.MaxFloat32, 0},
		{math.MaxFloat32, math.MaxFloat32},
	}
	in := tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: len(cases)}, tensor.NCHW)
	for i, c := range cases {
		in.Data()[i] = c.in
	}
	out := ReLU(nil, in).Data()
	for i, c := range cases {
		if math.Float32bits(out[i]) != math.Float32bits(c.want) {
			t.Errorf("ReLU(%#08x) = %#08x, want %#08x", math.Float32bits(c.in), math.Float32bits(out[i]), math.Float32bits(c.want))
		}
	}
}

// TestReLUMatchesComparison checks ReLU against the plain "zero it if
// v < 0" rule on random bit patterns, which cover every sign, exponent
// and NaN class.
func TestReLUMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := tensor.New(tensor.Shape{N: 1, C: 4, H: 256, W: 256}, tensor.NCHW)
	for i := range in.Data() {
		in.Data()[i] = math.Float32frombits(rng.Uint32())
	}
	out := ReLU(nil, in).Data()
	for i, v := range in.Data() {
		want := v
		if v < 0 {
			want = 0
		}
		if math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Fatalf("ReLU(%#08x) = %#08x, want %#08x", math.Float32bits(v), math.Float32bits(out[i]), math.Float32bits(want))
		}
	}
}

// TestReLUEveryBitPattern checks ReLU against the plain "zero it if
// v < 0" rule on all 2^32 float32 bit patterns: both zeros, denormals,
// infinities and NaNs of either sign. Under -short, and under the race
// detector, it checks a sample of every class instead. Either way it
// first runs every class's edges through every registered variant's
// ReLU row at each start offset mod 8 and at lengths that end in a
// partial vector.
func TestReLUEveryBitPattern(t *testing.T) {
	// Each class's edges with either sign: ±0, the smallest and largest
	// denormals and normals, ±Inf, and the quiet and signalling NaNs
	// with extreme payloads.
	edges := []uint32{0, 1, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, 0x7f800000, 0x7f800001, 0x7fbfffff, 0x7fc00000, 0x7fffffff}
	rule := func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	}
	buf := make([]float32, 8+4*len(edges))
	for i := range buf {
		buf[i] = math.Float32frombits(edges[i/2%len(edges)] | uint32(i%2)<<31)
	}
	for _, name := range gemm.KernelVariants() {
		rows := gemm.VariantRows(name)
		for off := 0; off < 8; off++ {
			for n := 1; off+n <= len(buf); n += 3 {
				src := buf[off : off+n]
				in := tensor.NewFrom(tensor.Shape{N: 1, C: 1, H: 1, W: n}, tensor.NCHW, src)
				got := relu(rows, nil, in).Data()
				for i, v := range src {
					if want := rule(v); math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("%s ReLU at offset %d, length %d: element %d %#08x gave %#08x, want %#08x",
							name, off, n, i, math.Float32bits(v), math.Float32bits(got[i]), math.Float32bits(want))
					}
				}
			}
		}
	}

	const chunk = 1 << 20
	in := tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: chunk}, tensor.NCHW)
	out := tensor.New(in.Shape(), tensor.NCHW)
	x, y := in.Data(), out.Data()
	check := func() {
		t.Helper()
		ReLU(out, in)
		for i, v := range x {
			want := v
			if v < 0 {
				want = 0
			}
			if got := y[i]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("ReLU(%#08x) = %#08x, want %#08x", math.Float32bits(v), math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
	if testing.Short() || raceEnabled {
		// Each class's edges with either sign, then the rest of the
		// chunk at random.
		rng := rand.New(rand.NewSource(8))
		for i := range x {
			b := rng.Uint32()
			if i < 2*len(edges) {
				b = edges[i/2] | uint32(i%2)<<31
			}
			x[i] = math.Float32frombits(b)
		}
		check()
		return
	}
	for hi := 0; hi < 1<<32/chunk; hi++ {
		for i := range x {
			x[i] = math.Float32frombits(uint32(hi*chunk + i))
		}
		check()
	}
}

func TestBatchNorm(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 2, H: 1, W: 2}, tensor.NCHW, []float32{1, 2, 3, 4})
	out := BatchNorm(nil, in, []float32{2, 10}, []float32{1, -1})
	want := []float32{3, 5, 29, 39}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("bn[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestLRNIdentityForTinyActivations(t *testing.T) {
	// With alpha*sq tiny, denominator ~1 so output ~input.
	in := tensor.New(tensor.Shape{N: 1, C: 5, H: 2, W: 2}, tensor.NCHW)
	in.Fill(0.01)
	out := LRN(nil, in, 5)
	if d := tensor.MaxAbsDiff(in, out); d > 1e-5 {
		t.Errorf("LRN perturbation %g too large for tiny input", d)
	}
}

func TestLRNShrinksLargeActivations(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 1, C: 5, H: 1, W: 1}, tensor.NCHW)
	in.Fill(100)
	out := LRN(nil, in, 5)
	for c := 0; c < 5; c++ {
		if out.At(0, c, 0, 0) >= 100 {
			t.Errorf("LRN should shrink large activations, got %v", out.At(0, c, 0, 0))
		}
	}
}

func TestSoftmax(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 3, H: 1, W: 1}, tensor.NCHW, []float32{1, 2, 3})
	out := Softmax(nil, in)
	var sum float64
	for c := 0; c < 3; c++ {
		v := float64(out.At(0, c, 0, 0))
		if v <= 0 || v >= 1 {
			t.Errorf("softmax[%d] = %v outside (0,1)", c, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(out.At(0, 2, 0, 0) > out.At(0, 1, 0, 0) && out.At(0, 1, 0, 0) > out.At(0, 0, 0, 0)) {
		t.Error("softmax should preserve ordering")
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 2, H: 1, W: 1}, tensor.NCHW, []float32{1000, 1001})
	out := Softmax(nil, in)
	for c := 0; c < 2; c++ {
		if v := out.At(0, c, 0, 0); math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax[%d] = %v not finite", c, v)
		}
	}
}

func TestConcat(t *testing.T) {
	a := tensor.New(tensor.Shape{N: 1, C: 2, H: 2, W: 2}, tensor.NCHW)
	a.Fill(1)
	b := tensor.New(tensor.Shape{N: 1, C: 3, H: 2, W: 2}, tensor.NCHW)
	b.Fill(2)
	out := Concat(nil, []*tensor.Tensor{a, b})
	if out.Shape().C != 5 {
		t.Fatalf("concat channels = %d", out.Shape().C)
	}
	if out.At(0, 0, 0, 0) != 1 || out.At(0, 4, 1, 1) != 2 {
		t.Error("concat values misplaced")
	}
}

func TestConcatRejectsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched concat should panic")
		}
	}()
	a := tensor.New(tensor.Shape{N: 1, C: 1, H: 2, W: 2}, tensor.NCHW)
	b := tensor.New(tensor.Shape{N: 1, C: 1, H: 3, W: 2}, tensor.NCHW)
	Concat(nil, []*tensor.Tensor{a, b})
}

func TestEltwiseAdd(t *testing.T) {
	a := tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 3}, tensor.NCHW)
	a.Fill(1)
	b := tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 3}, tensor.NCHW)
	b.Fill(2)
	out := EltwiseAdd(nil, a, b)
	for _, v := range out.Data() {
		if v != 3 {
			t.Errorf("add = %v, want 3", v)
		}
	}
}

func TestEltwiseAddCrossLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.New(tensor.Shape{N: 1, C: 3, H: 4, W: 4}, tensor.NCHW)
	a.FillRandom(rng, 1)
	b := tensor.New(tensor.Shape{N: 1, C: 3, H: 4, W: 4}, tensor.NCHW)
	b.FillRandom(rng, 1)
	ref := EltwiseAdd(nil, a, b)
	got := EltwiseAdd(nil, a, b.ToLayout(tensor.NHWC))
	if d := tensor.MaxAbsDiff(ref, got); d != 0 {
		t.Errorf("cross-layout add differs by %g", d)
	}
}

func TestFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := tensor.New(tensor.Shape{N: 1, C: 2, H: 3, W: 4}, tensor.NCHW)
	in.FillRandom(rng, 1)
	out := Flatten(nil, in)
	if !out.Shape().Equal(tensor.Shape{N: 1, C: 24, H: 1, W: 1}) {
		t.Fatalf("flatten shape = %v", out.Shape())
	}
	// Flatten of an NHWC tensor must produce canonical NCHW order.
	out2 := Flatten(nil, in.ToLayout(tensor.NHWC))
	if d := tensor.MaxAbsDiff(out, out2); d != 0 {
		t.Errorf("flatten layout dependence: diff %g", d)
	}
}

func TestFCGemvKnown(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 2, H: 1, W: 1}, tensor.NCHW, []float32{1, 2})
	w := []float32{1, 0, 0, 1, 1, 1} // 3x2
	b := []float32{10, 20, 30}
	out := FCGemv(nil, in, w, b, 3)
	want := []float32{11, 22, 33}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("fc[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestGlobalAvgPoolEqualsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := tensor.New(tensor.Shape{N: 1, C: 2, H: 5, W: 5}, tensor.NCHW)
	in.FillRandom(rng, 1)
	p := nn.ConvParams{KernelH: 5, KernelW: 5, StrideH: 5, StrideW: 5}
	out := AvgPool(nil, in, p)
	for c := 0; c < 2; c++ {
		var sum float32
		for h := 0; h < 5; h++ {
			for w := 0; w < 5; w++ {
				sum += in.At(0, c, h, w)
			}
		}
		want := sum / 25
		if got := out.At(0, c, 0, 0); math.Abs(float64(got-want)) > 1e-5 {
			t.Errorf("global avg c%d = %v, want %v", c, got, want)
		}
	}
}
