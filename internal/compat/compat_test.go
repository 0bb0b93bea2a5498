package compat

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

func producer(t *testing.T) *nn.Layer {
	t.Helper()
	b := nn.NewBuilder("p", tensor.Shape{N: 1, C: 16, H: 28, W: 28})
	b.Conv("conv", b.Input(), 32, 3, 1, 1)
	net := b.MustBuild()
	return net.Layers[net.LayerIndex("conv")]
}

func TestPenaltyCases(t *testing.T) {
	pl := platform.JetsonTX2Like()
	l := producer(t)
	van := primitives.PVanilla    // CPU / NCHW
	arm := primitives.PArmCLGemm  // CPU / NHWC
	cud := primitives.PCuDNNConv  // GPU / NCHW
	nnp := primitives.PNNPackGemm // CPU / NHWC

	if got := Penalty(pl, l, van, van); got != 0 {
		t.Errorf("same proc+layout penalty = %v, want 0", got)
	}
	layoutOnly := Penalty(pl, l, van, arm)
	if layoutOnly <= 0 {
		t.Errorf("layout-only penalty = %v, want > 0", layoutOnly)
	}
	procOnly := Penalty(pl, l, van, cud)
	if procOnly < pl.TransferFixedSec {
		t.Errorf("processor-only penalty = %v, want >= %v", procOnly, pl.TransferFixedSec)
	}
	both := Penalty(pl, l, arm, cud) // NHWC/CPU -> NCHW/GPU
	if both <= procOnly || both <= layoutOnly {
		t.Errorf("proc+layout penalty %v should exceed single penalties %v / %v",
			both, procOnly, layoutOnly)
	}
	// Two NHWC CPU libraries agree: free.
	if got := Penalty(pl, l, arm, nnp); got != 0 {
		t.Errorf("NHWC->NHWC same-proc penalty = %v, want 0", got)
	}
}

func TestPenaltyScalesWithActivationSize(t *testing.T) {
	pl := platform.JetsonTX2Like()
	bSmall := nn.NewBuilder("s", tensor.Shape{N: 1, C: 8, H: 7, W: 7})
	bSmall.Conv("c", bSmall.Input(), 8, 1, 1, 0)
	small := bSmall.MustBuild()
	bBig := nn.NewBuilder("b", tensor.Shape{N: 1, C: 64, H: 112, W: 112})
	bBig.Conv("c", bBig.Input(), 64, 1, 1, 0)
	big := bBig.MustBuild()

	van, cud := primitives.PVanilla, primitives.PCuDNNConv
	ps := Penalty(pl, small.Layers[1], van, cud)
	pb := Penalty(pl, big.Layers[1], van, cud)
	if pb <= ps {
		t.Errorf("big activation penalty %v should exceed small %v", pb, ps)
	}
}

func TestOutputPenalty(t *testing.T) {
	pl := platform.JetsonTX2Like()
	l := producer(t)
	if got := OutputPenalty(pl, l, primitives.PVanilla); got != 0 {
		t.Errorf("CPU/NCHW output penalty = %v, want 0", got)
	}
	if got := OutputPenalty(pl, l, primitives.PCuDNNConv); got < pl.TransferFixedSec {
		t.Errorf("GPU output penalty = %v, want >= fixed transfer", got)
	}
	if got := OutputPenalty(pl, l, primitives.PArmCLGemm); got <= 0 {
		t.Errorf("NHWC output penalty = %v, want > 0 (conversion back)", got)
	}
}

func TestInputPrimitiveIsHostFormat(t *testing.T) {
	p := InputPrimitive()
	if p.Proc != primitives.CPU || p.Layout != tensor.NCHW {
		t.Errorf("input pseudo-primitive = %v/%v, want CPU/NCHW", p.Proc, p.Layout)
	}
}

func TestEnergyPenalties(t *testing.T) {
	pl := platform.JetsonTX2Like()
	l := producer(t)
	van, arm, cud := primitives.PVanilla, primitives.PArmCLGemm, primitives.PCuDNNConv
	if got := EnergyPenalty(pl, l, van, van); got != 0 {
		t.Errorf("compatible edge energy = %v, want 0", got)
	}
	if got := EnergyPenalty(pl, l, van, arm); got <= 0 {
		t.Errorf("layout-change energy = %v, want > 0", got)
	}
	hop := EnergyPenalty(pl, l, van, cud)
	if hop <= 0 {
		t.Errorf("transfer energy = %v, want > 0", hop)
	}
	// Energy tracks time: transfer joules = transfer seconds x watts.
	want := pl.TransferLatency(int64(l.OutShape.Bytes())) * pl.Power().TransferWatts
	if got := EnergyPenalty(pl, l, van, cud); got != want {
		t.Errorf("transfer energy = %v, want %v", got, want)
	}
	if got := OutputEnergyPenalty(pl, l, van); got != 0 {
		t.Errorf("CPU/NCHW output energy = %v, want 0", got)
	}
	if got := OutputEnergyPenalty(pl, l, cud); got <= 0 {
		t.Errorf("GPU output energy = %v, want > 0", got)
	}
	if got := OutputEnergyPenalty(pl, l, arm); got <= 0 {
		t.Errorf("NHWC output energy = %v, want > 0", got)
	}
}
