package profile

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// TestSourcesHonorCanceledContext: every Source, given a context that
// is already canceled, returns ctx.Err() from each Measure* method
// instead of measuring. The fault injector is set to fail every
// measurement, so a schedule consulted before the context would show.
func TestSourcesHonorCanceledContext(t *testing.T) {
	net := smallNet(t)
	pl := platform.JetsonTX2Like()
	es, err := engine.NewSource(engine.New(net, 1, 1.0), tensor.New(net.InputShape, tensor.NCHW))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]Source{
		"sim":    NewSimSource(net, pl),
		"energy": NewSimEnergySource(net, pl),
		"engine": es,
		"fault":  NewFaultSource(NewSimSource(net, pl), FaultConfig{Seed: 7, TransientRate: 1, PermanentRate: 1}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	conv, out := 1, net.OutputLayer()
	vanilla, gemm := primitives.PVanilla, primitives.PArmCLGemm
	for name, src := range sources {
		if _, err := src.MeasureSample(ctx, conv, gemm, 0); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: MeasureSample err = %v, want context.Canceled", name, err)
		}
		if _, err := src.MeasureEdgePenalty(ctx, conv, vanilla, gemm); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: MeasureEdgePenalty err = %v, want context.Canceled", name, err)
		}
		if _, err := src.MeasureOutputPenalty(ctx, out, gemm); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: MeasureOutputPenalty err = %v, want context.Canceled", name, err)
		}
	}
}
