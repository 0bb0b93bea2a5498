package engine

import (
	"context"
	"testing"

	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// TestNewSourceActivationsMatchRun checks the activations NewSource
// caches from its canonical all-Vanilla Run. Each must be bit-identical
// to that layer run alone, in fresh memory, on the cached inputs. The
// last must equal Run's Output. The caller's input must come back
// unwritten. squeezenet is skipped under -short and the race detector,
// like TestDAGOutputDigests.
func TestNewSourceActivationsMatchRun(t *testing.T) {
	for _, name := range []string{"lenet5", "mobilenet-v1-025", "squeezenet"} {
		if name == "squeezenet" && (testing.Short() || raceEnabled) {
			continue
		}
		net := models.MustBuild(name)
		e := New(net, 1, 0.35)
		in := testInput(net, 1)
		orig := in.Clone()
		src, err := NewSource(e, in)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(in, orig) {
			t.Fatalf("%s: NewSource wrote to its input", name)
		}
		if !bitEqual(src.acts[0], orig) {
			t.Fatalf("%s: cached input differs from the caller's", name)
		}
		for i := 1; i < net.Len(); i++ {
			l := net.Layers[i]
			ins := make([]*tensor.Tensor, len(l.Inputs))
			for k, p := range l.Inputs {
				ins[k] = src.acts[p].ToLayout(tensor.NCHW)
			}
			want, err := e.execCfg(nil, i, l, primitives.PVanilla, ins, kernels.ConvTuned{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(src.acts[i], want) {
				t.Fatalf("%s: cached activation of layer %d (%s) differs from the layer run alone", name, i, l.Name)
			}
		}
		res, err := e.Run(e.VanillaAssignment(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(src.acts[net.OutputLayer()].ToLayout(tensor.NCHW), res.Output) {
			t.Fatalf("%s: cached output activation differs from Run's Output", name)
		}
	}
}

// TestMeasureAllocatesBeforeTimer checks that a profiling sample times
// only what Run times: the output, the scratch and the conversion
// buffer are all allocated before the timer starts. On kernelNet every
// activation, conversion and non-empty scratch holds at least 16 KB, so
// no MeasureSample of any CPU candidate, MeasureEdgePenalty of either
// layout change or MeasureOutputPenalty may allocate half of that
// inside its timed region: what is left are the tensor headers,
// closures and packers a Run step allocates too (one packer per call
// for a gathering lowering). nnpack-fft is exempt: ConvFFT keeps its float64 transform
// grids to itself (ROADMAP item 12).
func TestMeasureAllocatesBeforeTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net := kernelNet(t)
	e := New(net, 1, 0.5)
	src, err := NewSource(e, testInput(net, 4))
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(net.InputShape.Bytes() / 2)
	var inside int64
	defer func(orig func(func()) float64) { timed = orig }(timed)
	timed = func(fn func()) float64 {
		inside, _ = allocated(fn)
		return 1e-6
	}
	check := func(what string, measure func() (float64, error)) {
		t.Helper()
		inside = -1
		if _, err := measure(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if inside < 0 || inside > bound {
			t.Errorf("%s: %d bytes allocated inside the timer, more than %d", what, inside, bound)
		}
	}
	ctx := context.Background()
	for i := 1; i < net.Len(); i++ {
		l := net.Layers[i]
		for _, p := range primitives.Candidates(l, primitives.ModeCPU) {
			if p == primitives.PNNPackFFT {
				continue
			}
			check(l.Name+" under "+p.Name, func() (float64, error) { return src.MeasureSample(ctx, i, p, 0) })
		}
		nchw, nhwc := primitives.PVanilla, primitives.PNNPackOp
		check(l.Name+" to NHWC", func() (float64, error) { return src.MeasureEdgePenalty(ctx, i, nchw, nhwc) })
		check(l.Name+" to NCHW", func() (float64, error) { return src.MeasureEdgePenalty(ctx, i, nhwc, nchw) })
	}
	check("output from NHWC", func() (float64, error) {
		return src.MeasureOutputPenalty(ctx, net.OutputLayer(), primitives.PNNPackOp)
	})
}
