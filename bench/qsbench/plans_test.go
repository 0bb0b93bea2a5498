package main

import (
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/primitives"
)

// mixedPlan gives every layer its last CPU candidate, so the plan names
// primitives of several libraries.
func mixedPlan(net *nn.Network) []primitives.ID {
	a := make([]primitives.ID, net.Len())
	a[0] = primitives.PVanilla.Idx
	for i := 1; i < net.Len(); i++ {
		cands := primitives.Candidates(net.Layers[i], primitives.ModeCPU)
		a[i] = cands[len(cands)-1].Idx
	}
	return a
}

func encode(t *testing.T, pf planFile) []byte {
	t.Helper()
	data, err := json.Marshal(pf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPlanRoundTrip(t *testing.T) {
	net := models.MustBuild("mobilenet-v1-025")
	plan, bsl := mixedPlan(net), make([]primitives.ID, net.Len())
	for i := range bsl {
		bsl[i] = primitives.PVanilla.Idx
	}
	fp, err := parsePlan(encode(t, planFile{Network: net.Name, Plan: planLayers(net, plan), BSL: planLayers(net, bsl)}), net)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fp.plan, plan) || !slices.Equal(fp.bsl, bsl) {
		t.Fatal("round trip changed the assignments")
	}
	if len(fp.sha256) != 64 {
		t.Fatalf("sha256 %q", fp.sha256)
	}
}

func TestCommittedPlansLoad(t *testing.T) {
	for _, name := range inferNetworks {
		net := models.MustBuild(name)
		if _, err := loadPlan(filepath.Join("plans", name+".json"), net); err != nil {
			t.Error(err)
		}
	}
}

func TestPlanRejections(t *testing.T) {
	net := models.MustBuild("mobilenet-v1-025")
	var gpu, conv *primitives.Primitive
	for _, p := range primitives.Registry() {
		if gpu == nil && p.Proc == primitives.GPU {
			gpu = p
		}
		if conv == nil && p.Lower == primitives.Im2col {
			conv = p
		}
	}
	firstOf := func(kind nn.OpKind) int {
		for i, l := range net.Layers {
			if l.Kind == kind {
				return i
			}
		}
		t.Fatalf("mobilenet-v1-025 has no %v layer", kind)
		return 0
	}
	convAt, reluAt := firstOf(nn.OpConv), firstOf(nn.OpReLU)
	valid := func() planFile {
		a := mixedPlan(net)
		return planFile{Network: net.Name, Plan: planLayers(net, a), BSL: planLayers(net, a)}
	}
	for _, tc := range []struct {
		name  string
		edit  func(*planFile)
		wants []string
	}{
		{"unknown primitive", func(pf *planFile) { pf.Plan[4].Primitive = "no-such-primitive" },
			[]string{net.Layers[5].Name, "unknown primitive"}},
		{"layer missing", func(pf *planFile) { pf.Plan = pf.Plan[:len(pf.Plan)-1] },
			[]string{"plan has 84 layers", "has 85"}},
		{"layer renamed", func(pf *planFile) { pf.Plan[2].Layer = "renamed" },
			[]string{"renamed", net.Layers[3].Name}},
		{"GPU primitive", func(pf *planFile) { pf.Plan[convAt-1].Primitive = gpu.Name },
			[]string{net.Layers[convAt].Name, gpu.Name, "cannot execute"}},
		{"conv primitive on a ReLU", func(pf *planFile) { pf.BSL[reluAt-1].Primitive = conv.Name },
			[]string{"bsl layer", net.Layers[reluAt].Name, "cannot execute"}},
		{"other network", func(pf *planFile) { pf.Network = "mobilenet-v1" },
			[]string{"mobilenet-v1"}},
	} {
		pf := valid()
		tc.edit(&pf)
		_, err := parsePlan(encode(t, pf), net)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.wants {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
}
