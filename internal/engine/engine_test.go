package engine

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// testNet is small enough to run every primitive quickly but contains
// a conv (3x3 s1, so winograd applies), depthwise, pool, bn, fc and
// softmax.
func testNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("engine-test", tensor.Shape{N: 1, C: 3, H: 16, W: 16})
	x := b.Conv("conv1", b.Input(), 8, 3, 1, 1)
	x = b.BatchNorm("bn1", x)
	x = b.ReLU("relu1", x)
	x = b.DepthwiseConv("dw", x, 3, 1, 1)
	x = b.Pool("pool", x, nn.MaxPool, 2, 2, 0)
	x = b.Flatten("flat", x)
	x = b.FullyConnected("fc", x, 10)
	b.Softmax("prob", x)
	return b.MustBuild()
}

func testInput(net *nn.Network, seed int64) *tensor.Tensor {
	in := tensor.New(net.InputShape, tensor.NCHW)
	in.FillRandom(rand.New(rand.NewSource(seed)), 1)
	return in
}

func TestVanillaRun(t *testing.T) {
	net := testNet(t)
	e := New(net, 1, 1.0)
	res, err := e.Run(e.VanillaAssignment(), testInput(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Shape().Equal(tensor.Shape{N: 1, C: 10, H: 1, W: 1}) {
		t.Fatalf("output shape %v", res.Output.Shape())
	}
	// Softmax output sums to 1.
	var sum float32
	for _, v := range res.Output.Data() {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("softmax sum = %v", sum)
	}
	if res.Total <= 0 {
		t.Error("total time should be positive")
	}
}

// The defining property of the whole system: every primitive
// assignment computes the same function. Random assignments must match
// the vanilla reference within float tolerance.
func TestAssignmentInvariance(t *testing.T) {
	net := testNet(t)
	e := New(net, 3, 0.5)
	in := testInput(net, 4)
	ref, err := e.Run(e.VanillaAssignment(), in)
	if err != nil {
		t.Fatal(err)
	}
	for trial, assignment := range randomAssignments(net, 12, 9) {
		res, err := e.Run(assignment, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := tensor.MaxAbsDiff(ref.Output, res.Output); d > 1e-3 {
			t.Errorf("trial %d: output differs from vanilla by %g", trial, d)
		}
	}
}

func TestRunRejectsGPUPrimitive(t *testing.T) {
	net := testNet(t)
	e := New(net, 1, 1.0)
	a := e.VanillaAssignment()
	a[net.LayerIndex("conv1")] = primitives.PCuDNNConv.Idx
	_, err := e.Run(a, testInput(net, 1))
	if err == nil || !strings.Contains(err.Error(), "GPU") {
		t.Errorf("GPU primitive should be rejected, got %v", err)
	}
}

func TestRunRejectsIncapablePrimitive(t *testing.T) {
	net := testNet(t)
	e := New(net, 1, 1.0)
	a := e.VanillaAssignment()
	a[net.LayerIndex("fc")] = primitives.PArmCLWinograd.Idx
	if _, err := e.Run(a, testInput(net, 1)); err == nil {
		t.Error("winograd on an FC layer should be rejected")
	}
}

func TestRunRejectsBadShapes(t *testing.T) {
	net := testNet(t)
	e := New(net, 1, 1.0)
	bad := tensor.New(tensor.Shape{N: 1, C: 3, H: 8, W: 8}, tensor.NCHW)
	if _, err := e.Run(e.VanillaAssignment(), bad); err == nil {
		t.Error("wrong input shape should be rejected")
	}
	if _, err := e.Run(make([]primitives.ID, 2), testInput(net, 1)); err == nil {
		t.Error("wrong assignment length should be rejected")
	}
}

func TestPenaltyChargedForLayoutMix(t *testing.T) {
	net := testNet(t)
	e := New(net, 1, 1.0)
	a := e.VanillaAssignment()
	// NHWC depthwise after an NCHW producer forces a real conversion.
	a[net.LayerIndex("dw")] = primitives.PArmCLDepth.Idx
	res, err := e.Run(a, testInput(net, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.PenaltySeconds[net.LayerIndex("dw")] <= 0 {
		t.Error("layout mix should be charged a conversion penalty")
	}
}

func TestSparseDensityAffectsCSR(t *testing.T) {
	net := testNet(t)
	dense := New(net, 1, 1.0)
	sparse := New(net, 1, 0.2)
	ci := net.LayerIndex("conv1")
	if dense.params[ci].csr.Density() <= sparse.params[ci].csr.Density() {
		t.Errorf("density 1.0 CSR (%v) should be denser than 0.2 CSR (%v)",
			dense.params[ci].csr.Density(), sparse.params[ci].csr.Density())
	}
}

func TestWeightsSeedDeterminism(t *testing.T) {
	net := testNet(t)
	in := testInput(net, 5)
	r1, err := New(net, 77, 1.0).Run(e0(net, 77).VanillaAssignment(), in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(net, 77, 1.0).Run(e0(net, 77).VanillaAssignment(), in)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(r1.Output, r2.Output); d != 0 {
		t.Errorf("same seed should give identical outputs, diff %g", d)
	}
	r3, err := New(net, 78, 1.0).Run(e0(net, 78).VanillaAssignment(), in)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(r1.Output, r3.Output); d == 0 {
		t.Error("different seeds should give different outputs")
	}
}

func e0(net *nn.Network, seed int64) *Engine { return New(net, seed, 1.0) }

// The engine source implements the profiling contract directly.
var _ profile.Source = (*Source)(nil)

// End-to-end on real measurements: profile with the engine source,
// search, and execute the found assignment — it must be valid and
// compute the reference function.
func TestProfileSearchExecutePipeline(t *testing.T) {
	net := testNet(t)
	e := New(net, 11, 0.5)
	in := testInput(net, 12)
	src, err := NewSource(e, in)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := profile.Run(net, src, profile.Options{Mode: primitives.ModeCPU, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := core.Search(tab, core.Config{Episodes: 300, Seed: 1})
	run, err := e.Run(res.Assignment, in)
	if err != nil {
		t.Fatalf("executing searched assignment: %v", err)
	}
	ref, err := e.Run(e.VanillaAssignment(), in)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref.Output, run.Output); d > 1e-3 {
		t.Errorf("searched assignment output differs by %g", d)
	}
}

func TestSourcePenalties(t *testing.T) {
	net := testNet(t)
	e := New(net, 11, 1.0)
	src, err := NewSource(e, testInput(net, 12))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ci := net.LayerIndex("conv1")
	if got, err := src.MeasureEdgePenalty(ctx, ci, primitives.PVanilla, primitives.PAtlasIm2col); got != 0 || err != nil {
		t.Errorf("same-layout penalty = %v, %v, want 0", got, err)
	}
	if got, err := src.MeasureEdgePenalty(ctx, ci, primitives.PVanilla, primitives.PArmCLGemm); got <= 0 || err != nil {
		t.Errorf("layout-change penalty = %v, %v, want > 0", got, err)
	}
	out := net.OutputLayer()
	if got, err := src.MeasureOutputPenalty(ctx, out, primitives.PVanilla); got != 0 || err != nil {
		t.Errorf("NCHW output penalty = %v, %v, want 0", got, err)
	}
}

// Grouped convolutions must preserve the engine's defining property:
// every primitive choice computes the same function.
func TestGroupedConvAssignmentInvariance(t *testing.T) {
	b := nn.NewBuilder("grouped-net", tensor.Shape{N: 1, C: 6, H: 12, W: 12})
	x := b.Conv2D("gconv", b.Input(), nn.ConvParams{
		OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2,
	})
	x = b.ReLU("relu", x)
	x = b.Flatten("flat", x)
	b.FullyConnected("fc", x, 5)
	net := b.MustBuild()
	e := New(net, 31, 1.0)
	in := testInput(net, 32)
	ref, err := e.Run(e.VanillaAssignment(), in)
	if err != nil {
		t.Fatal(err)
	}
	for _, prim := range []primitives.ID{
		primitives.PAtlasIm2col.Idx, primitives.POpenIm2col.Idx, primitives.PSparseConv.Idx,
	} {
		a := e.VanillaAssignment()
		a[net.LayerIndex("gconv")] = prim
		got, err := e.Run(a, in)
		if err != nil {
			t.Fatalf("%v: %v", primitives.ByID(prim).Name, err)
		}
		if d := tensor.MaxAbsDiff(ref.Output, got.Output); d > 1e-3 {
			t.Errorf("%v: grouped conv output differs by %g", primitives.ByID(prim).Name, d)
		}
	}
}

// TestParallelismBitIdenticalOutputs pins the engine-level contract:
// for any primitive assignment, an engine built with Parallelism(n)
// produces output bit-identical to the sequential engine — parallel
// kernels repartition exclusive output blocks, never reduction orders.
func TestParallelismBitIdenticalOutputs(t *testing.T) {
	net := testNet(t)
	in := testInput(net, 5)
	seq := New(net, 3, 0.5)
	assignments := append([][]primitives.ID{seq.VanillaAssignment()}, randomAssignments(net, 6, 10)...)
	for _, workers := range []int{2, 4, 8} {
		par := New(net, 3, 0.5, Parallelism(workers))
		if par.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", par.Workers(), workers)
		}
		for ai, a := range assignments {
			want, err := seq.Run(a, in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Run(a, in)
			if err != nil {
				t.Fatal(err)
			}
			wd, gd := want.Output.Data(), got.Output.Data()
			for i := range wd {
				if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
					t.Fatalf("assignment %d workers=%d: output differs at %d: %v vs %v",
						ai, workers, i, wd[i], gd[i])
				}
			}
		}
	}
}
