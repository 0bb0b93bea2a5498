package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// The infer workloads run frozen plans rather than searching afresh:
// four engine-profiled searches of mobilenet-v1-025 on one host gave
// four different plans, which would confound engine and kernel
// comparisons between commits.

// planFile is the on-disk form of a frozen plan: one primitive name per
// layer (the input pseudo-layer excluded) for the searched plan and for
// the best single library, plus how they were made.
type planFile struct {
	Network    string      `json:"network"`
	Provenance provenance  `json:"provenance"`
	Plan       []planLayer `json:"plan"`
	BSL        []planLayer `json:"bsl"`
}

type provenance struct {
	Profile        string  `json:"profile"`
	Search         string  `json:"search"`
	PredictedMS    float64 `json:"predicted_ms"`
	BSLLibrary     string  `json:"bsl_library"`
	BSLPredictedMS float64 `json:"bsl_predicted_ms"`
	GemmKernel     string  `json:"gemm_kernel"`
	GOARCH         string  `json:"goarch"`
	CPUModel       string  `json:"cpu_model"`
	GoVersion      string  `json:"go_version"`
}

type planLayer struct {
	Layer     string `json:"layer"`
	Primitive string `json:"primitive"`
}

// frozenPlan is a validated plan file resolved against its network.
type frozenPlan struct {
	plan, bsl []primitives.ID
	sha256    string
}

// loadPlan reads and validates the frozen plan at path for net.
func loadPlan(path string, net *nn.Network) (*frozenPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fp, err := parsePlan(data, net)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", path, err)
	}
	return fp, nil
}

// parsePlan resolves both assignments of a plan file, rejecting an
// unknown primitive, a wrong layer count or name, or a primitive that
// cannot execute its layer on the CPU engine.
func parsePlan(data []byte, net *nn.Network) (*frozenPlan, error) {
	var pf planFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, err
	}
	if pf.Network != net.Name {
		return nil, fmt.Errorf("network %q, want %q", pf.Network, net.Name)
	}
	plan, err := resolve("plan", pf.Plan, net)
	if err != nil {
		return nil, err
	}
	bsl, err := resolve("bsl", pf.BSL, net)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	return &frozenPlan{plan: plan, bsl: bsl, sha256: hex.EncodeToString(sum[:])}, nil
}

func resolve(which string, layers []planLayer, net *nn.Network) ([]primitives.ID, error) {
	if len(layers) != net.Len()-1 {
		return nil, fmt.Errorf("%s has %d layers, network %s has %d", which, len(layers), net.Name, net.Len()-1)
	}
	ids := make([]primitives.ID, net.Len())
	ids[0] = primitives.PVanilla.Idx
	for k, pl := range layers {
		i := k + 1
		l := net.Layers[i]
		if pl.Layer != l.Name {
			return nil, fmt.Errorf("%s layer %d is %q, network has %q", which, i, pl.Layer, l.Name)
		}
		p, ok := primitives.ByName(pl.Primitive)
		if !ok {
			return nil, fmt.Errorf("%s layer %d (%s): unknown primitive %q", which, i, l.Name, pl.Primitive)
		}
		if !executable(l, p) {
			return nil, fmt.Errorf("%s layer %d (%s): primitive %q cannot execute a %v layer on the CPU engine", which, i, l.Name, p.Name, l.Kind)
		}
		ids[i] = p.Idx
	}
	return ids, nil
}

func executable(l *nn.Layer, p *primitives.Primitive) bool {
	for _, c := range primitives.Candidates(l, primitives.ModeCPU) {
		if c == p {
			return true
		}
	}
	return false
}

func planLayers(net *nn.Network, a []primitives.ID) []planLayer {
	out := make([]planLayer, 0, net.Len()-1)
	for i := 1; i < net.Len(); i++ {
		out = append(out, planLayer{Layer: net.Layers[i].Name, Primitive: primitives.ByID(a[i]).Name})
	}
	return out
}

// Freeze settings: the paper's 1000 episodes, a 10-sample real-engine
// profile on one kernel worker, and seed 1 for weights, input and agent.
const (
	freezeSamples  = 10
	freezeEpisodes = 1000
	freezeSeed     = 1
	density        = 0.35
)

// freeze writes plans/<network>.json for each infer workload's network
// from a real-engine profile and a QS-DNN search on this host.
func freeze(args []string) error {
	fs := flag.NewFlagSet("freeze", flag.ContinueOnError)
	dir := fs.String("dir", "bench/qsbench/plans", "directory the plan files are written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, name := range inferNetworks {
		net, err := models.Build(name)
		if err != nil {
			return err
		}
		pf, err := freezePlan(net)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		data, err := json.MarshalIndent(pf, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: predicted %.3f ms, BSL (%s) %.3f ms\n", path, pf.Provenance.PredictedMS, pf.Provenance.BSLLibrary, pf.Provenance.BSLPredictedMS)
	}
	return nil
}

func freezePlan(net *nn.Network) (*planFile, error) {
	eng := engine.New(net, freezeSeed, density, engine.Parallelism(1))
	in := tensor.New(net.InputShape, tensor.NCHW)
	in.FillRandom(rand.New(rand.NewSource(freezeSeed)), 1)
	src, err := engine.NewSource(eng, in)
	if err != nil {
		return nil, err
	}
	tab, err := profile.Run(net, src, profile.Options{Mode: primitives.ModeCPU, Samples: freezeSamples})
	if err != nil {
		return nil, err
	}
	res := core.Search(tab, core.Config{Episodes: freezeEpisodes, Seed: freezeSeed})
	lib, bsl := core.BestSingleLibrary(tab)
	return &planFile{
		Network: net.Name,
		Provenance: provenance{
			Profile:        fmt.Sprintf("real engine, %d samples, 1 kernel worker, weights and input seed %d, density %g", freezeSamples, freezeSeed, density),
			Search:         fmt.Sprintf("QS-DNN (core.Search), %d episodes, seed %d", freezeEpisodes, freezeSeed),
			PredictedMS:    ms(tab, res.Assignment),
			BSLLibrary:     lib.String(),
			BSLPredictedMS: ms(tab, bsl.Assignment),
			GemmKernel:     gemm.ActiveKernel(),
			GOARCH:         runtime.GOARCH,
			CPUModel:       cpuModel(),
			GoVersion:      runtime.Version(),
		},
		Plan: planLayers(net, res.Assignment),
		BSL:  planLayers(net, bsl.Assignment),
	}, nil
}

func ms(tab *lut.Table, a []primitives.ID) float64 { return tab.TotalTime(a) * 1e3 }
