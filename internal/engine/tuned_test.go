package engine

import (
	"context"
	"testing"

	"repro/internal/gemm"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// convAssignment assigns base to every conv layer and Vanilla
// elsewhere.
func convAssignment(e *Engine, id primitives.ID) []primitives.ID {
	a := e.VanillaAssignment()
	for i, l := range e.Net.Layers {
		if i == 0 {
			continue
		}
		if l.Kind == nn.OpConv {
			a[i] = id
		}
	}
	return a
}

// tunableBases are the packed-GEMM lowerings whose execution config
// the autotuner varies.
var tunableBases = []*primitives.Primitive{primitives.POpenIm2col, primitives.POpenIm2row, primitives.POpenKn2row}

// tunable reports whether id is one of tunableBases.
func tunable(id primitives.ID) bool {
	for _, p := range tunableBases {
		if p.Idx == id {
			return true
		}
	}
	return false
}

func TestRunTunedTwinMatchesBase(t *testing.T) {
	base := primitives.POpenIm2col
	net := testNet(t)
	e := New(net, 1, 1.0)
	in := testInput(net, 2)
	a := convAssignment(e, base.Idx)

	ref, err := e.Run(a, in)
	if err != nil {
		t.Fatal(err)
	}

	// A panel-tiled, worker-overridden config with a zero Block stays
	// bit-identical; a KC-blocked config stays within float32 tolerance.
	for i := range net.Layers {
		e.SetTuned(i, base.Idx, kernels.ConvTuned{Panel: 2, Workers: 2})
	}
	got, err := e.Run(a, in)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref.Output, got.Output); d != 0 {
		t.Errorf("panel-tiled config output differs from the default by %g", d)
	}

	for i := range net.Layers {
		e.SetTuned(i, base.Idx, kernels.ConvTuned{Panel: 2, Block: gemm.BlockConfig{KC: 16, NC: 16}})
	}
	got, err = e.Run(a, in)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref.Output, got.Output); d > 1e-3 {
		t.Errorf("blocked config output differs from the default by %g", d)
	}
}

func TestRunTunedTwinAllLowerings(t *testing.T) {
	net := testNet(t)
	e := New(net, 1, 1.0)
	in := testInput(net, 2)
	for _, base := range tunableBases {
		a := convAssignment(e, base.Idx)
		ref, err := e.Run(a, in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Layers {
			e.SetTuned(i, base.Idx, kernels.ConvTuned{Panel: 2, Workers: 2})
		}
		got, err := e.Run(a, in)
		if err != nil {
			t.Fatalf("%s tuned: %v", base.Name, err)
		}
		if d := tensor.MaxAbsDiff(ref.Output, got.Output); d != 0 {
			t.Errorf("%s tuned differs from its default by %g", base.Name, d)
		}
	}
}

func TestMeasureTuned(t *testing.T) {
	net := testNet(t)
	e := New(net, 1, 1.0)
	src, err := NewSource(e, testInput(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	convLayer := net.LayerIndex("conv1")
	for _, cfg := range []kernels.ConvTuned{
		{},
		{Panel: 2, Workers: 2},
		{Block: gemm.BlockConfig{KC: 32, NC: 32, Kernel: "go-4x8"}},
	} {
		sec, err := src.MeasureTuned(context.Background(), convLayer, primitives.POpenIm2col, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if sec <= 0 {
			t.Errorf("cfg %+v: non-positive time %v", cfg, sec)
		}
	}
	// Cancelled context fails fast.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := src.MeasureTuned(ctx, convLayer, primitives.POpenIm2col, kernels.ConvTuned{}); err == nil {
		t.Error("cancelled MeasureTuned should fail")
	}
}

// TestMeasureSampleRunsTunedConfig pins that profiling a primitive at
// a layer with a recorded config times that config, not the defaults.
// The config is observed through what a sample allocates: the source
// allocates the step's ConvIm2rowScratch workspace for the config it
// runs, which a one-row panel makes far smaller than the default
// whole-matrix one.
func TestMeasureSampleRunsTunedConfig(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net := testNet(t)
	e := New(net, 1, 1.0)
	src, err := NewSource(e, testInput(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := primitives.POpenIm2row
	i := net.LayerIndex("conv1")
	cfg := kernels.ConvTuned{Panel: 1}
	ctx := context.Background()
	// bytes returns the fewest bytes one of three measurements allocates.
	bytes := func(measure func() (float64, error)) int64 {
		least := int64(-1)
		for r := 0; r < 3; r++ {
			b, _ := allocated(func() {
				if _, err := measure(); err != nil {
					t.Fatal(err)
				}
			})
			if least < 0 || b < least {
				least = b
			}
		}
		return least
	}
	sample := func() (float64, error) { return src.MeasureSample(ctx, i, base, 0) }
	untuned := bytes(sample)
	e.SetTuned(i, base.Idx, cfg)
	recorded := bytes(sample)
	tuned := bytes(func() (float64, error) { return src.MeasureTuned(ctx, i, base, cfg) })
	plain := bytes(func() (float64, error) { return src.MeasureTuned(ctx, i, base, kernels.ConvTuned{}) })
	if tuned >= plain {
		t.Fatalf("the one-row panel allocates %d bytes, the default %d: the config is not observable", tuned, plain)
	}
	if untuned != plain {
		t.Errorf("profiling with no recorded config allocated %d bytes, the default %d", untuned, plain)
	}
	if recorded != tuned {
		t.Errorf("profiling the base allocated %d bytes, its recorded config %d and the default %d: the sample did not run its config", recorded, tuned, plain)
	}
}
