package engine

import (
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
