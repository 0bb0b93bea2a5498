package primitives

import (
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestCanImplementAgreesWithCandidates pins CanImplement to Candidates:
// over every layer of every zoo network, under both modes, a primitive
// can implement the layer exactly when Candidates lists it.
func TestCanImplementAgreesWithCandidates(t *testing.T) {
	checked := 0
	for _, name := range models.All() {
		net := models.MustBuild(name)
		for _, l := range net.Layers {
			for _, mode := range []Mode{ModeCPU, ModeGPGPU} {
				listed := map[*Primitive]bool{}
				for _, c := range Candidates(l, mode) {
					listed[c] = true
				}
				for _, p := range Registry() {
					if got := CanImplement(l, mode, p); got != listed[p] {
						t.Errorf("%s/%s %v %s: CanImplement = %v, Candidates lists it: %v", name, l.Name, mode, p.Name, got, listed[p])
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no layer checked")
	}
}

// TestCanImplementAllocatesNothing: the membership check builds no
// candidate slice.
func TestCanImplementAllocatesNothing(t *testing.T) {
	net := models.MustBuild("mobilenet-v1-025")
	if allocs := testing.AllocsPerRun(20, func() {
		for _, l := range net.Layers {
			CanImplement(l, ModeCPU, PVanilla)
			CanImplement(l, ModeCPU, PCuDNNConv)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations per pass over the network, want 0", allocs)
	}
}

// TestFCAndFlattenCandidatesAreNCHW pins a premise the engine's buffer
// planner relies on: the fully-connected and flatten kernels write
// NCHW, so every CPU candidate of those layers must be NCHW, or a
// planned output view would carry the wrong layout.
func TestFCAndFlattenCandidatesAreNCHW(t *testing.T) {
	checked := 0
	for _, name := range models.All() {
		for _, l := range models.MustBuild(name).Layers {
			if l.Kind != nn.OpFullyConnected && l.Kind != nn.OpFlatten {
				continue
			}
			for _, p := range Candidates(l, ModeCPU) {
				if p.Layout != tensor.NCHW {
					t.Errorf("%s/%s: CPU candidate %s is %v, the %v kernel writes NCHW", name, l.Name, p.Name, p.Layout, l.Kind)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no fully-connected or flatten layer in the zoo")
	}
}
