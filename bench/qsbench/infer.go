package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// inferNetworks are the networks the infer workloads run, and so the
// ones `qsbench freeze` writes plans for.
var inferNetworks = []string{"mobilenet-v1-025", "mobilenet-v1"}

// vanillaTol bounds how far the frozen and BSL outputs may stray from
// the all-Vanilla reference: the primitives sum in different orders.
const vanillaTol = 1e-3

// runInfer executes the frozen plan of netName on the real engine with
// one kernel worker, alternating with the plan of the best single
// library so that plan_x_bsl compares the two under the same load.
func runInfer(c *runCtx, netName string) (*result, error) {
	res := &result{}
	net, err := models.Build(netName)
	if err != nil {
		return nil, err
	}
	var eng *engine.Engine
	var in *tensor.Tensor
	var fp *frozenPlan
	setupS, _, err := repeatSetup(c, func(int) (func(), error) {
		eng = engine.New(net, c.seed, density, engine.Parallelism(1))
		in = tensor.New(net.InputShape, tensor.NCHW)
		in.FillRandom(rand.New(rand.NewSource(c.seed)), 1)
		var err error
		fp, err = loadPlan(filepath.Join(c.planDir, netName+".json"), net)
		return noUndo, err
	})
	if err != nil {
		return nil, err
	}
	res.planSHA = fp.sha256

	var planMS, bslMS []float64
	kinds := map[string]float64{} // kernel seconds by kernelKind
	var kernelS, convertS, allocs, bytes, gcs float64
	var first, firstBSL *tensor.Tensor
	timed := c.tr.open(0, "timed")
	var a, b runtime.MemStats
	var heldMB float64
	start := time.Now()
	for len(planMS) == 0 || time.Since(start) < c.dur {
		for _, isBSL := range []bool{false, true} {
			assign, name := fp.plan, "engine.Run plan"
			if isBSL {
				assign, name = fp.bsl, "engine.Run bsl"
			}
			if c.tr.on() && !isBSL {
				runtime.ReadMemStats(&a)
			}
			sp := c.tr.open(timed, name)
			t := time.Now()
			r, err := eng.Run(assign, in)
			d := time.Since(t)
			c.tr.close(sp, nil)
			res.attempted++
			if err != nil {
				res.fail("%s: %v", name, err)
				continue
			}
			if isBSL {
				bslMS = append(bslMS, d.Seconds()*1e3)
				firstBSL = checkSame(res, firstBSL, r.Output, name)
				continue
			}
			if c.tr.on() {
				runtime.ReadMemStats(&b)
				allocs += float64(b.Mallocs - a.Mallocs)
				bytes += float64(b.TotalAlloc - a.TotalAlloc)
				gcs += float64(b.NumGC - a.NumGC)
			}
			planMS = append(planMS, d.Seconds()*1e3)
			kernelS += sum(r.LayerSeconds)
			convertS += sum(r.PenaltySeconds)
			for i, s := range r.LayerSeconds {
				kinds[kernelKind(net.Layers[i].Kind)] += s
			}
			first = checkSame(res, first, r.Output, name)
		}
		if heldMB == 0 {
			heldMB = heldHeapMB()
		}
	}
	c.tr.close(timed, map[string]any{"images": len(planMS)})
	if len(planMS) == 0 || len(bslMS) == 0 {
		return nil, fmt.Errorf("every inference failed")
	}

	// Oracle: the all-Vanilla reference computes the same function.
	sp := c.tr.open(0, "engine.Run vanilla")
	van, err := eng.Run(eng.VanillaAssignment(), in)
	c.tr.close(sp, nil)
	res.attempted++
	if err != nil {
		res.fail("vanilla reference: %v", err)
	} else {
		for _, o := range []struct {
			name string
			out  *tensor.Tensor
		}{{"plan", first}, {"bsl", firstBSL}} {
			if d := tensor.MaxAbsDiff(o.out, van.Output); !(d <= vanillaTol) {
				res.fail("%s output differs from the Vanilla reference by %g", o.name, d)
			}
		}
	}

	p50 := median(planMS)
	res.addE2E("setup_s", "s", setupS)
	res.addE2E("latency_ms", "ms", p50)
	res.addE2E("throughput", "1/s", 1e3/p50)
	res.addE2E("plan_x_bsl", "x", median(bslMS)/p50)
	res.addE2E("heap_mb", "MB", heldMB)
	res.check("images", len(planMS))
	res.check("bsl_images", len(bslMS))

	if c.tr.on() {
		n := float64(len(planMS))
		wall := sum(planMS) / 1e3
		pct := func(s float64) float64 { return 100 * s / wall }
		p, v := tail(planMS)
		res.check("tail_percentile", p)
		res.addLayer("latency_ms_tail", "ms", v)
		if err := profileEngine(c, res, net, eng, in, fp, p50); err != nil {
			return nil, err
		}
		addRuntimeLayer(res, allocs, bytes, gcs, n)
		res.addLayer("engine.kernel_pct", "%", pct(kernelS))
		res.addLayer("engine.convert_pct", "%", pct(convertS))
		res.addLayer("engine.other_pct", "%", pct(wall-kernelS-convertS))
		for _, k := range kernelKinds {
			res.addLayer("kernels."+k+"_pct", "%", pct(kinds[k]))
		}
		flop, gflops := gemmRate(c, net, fp.plan)
		res.addLayer("gemm.gflop_per_op", "GFLOP", flop/1e9)
		res.addLayer("gemm.gflops", "GFLOP/s", gflops)
		addAbsentLayers(res, serveLayers)
	}
	return res, nil
}

// checkSame returns out as the reference when ref is nil, and otherwise
// fails the run unless out is bit-identical to ref.
func checkSame(res *result, ref, out *tensor.Tensor, name string) *tensor.Tensor {
	if ref == nil {
		return out
	}
	x, y := ref.Data(), out.Data()
	if len(x) != len(y) {
		res.fail("%s: output has %d values, first run had %d", name, len(y), len(x))
		return ref
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			res.fail("%s: output value %d is %v, first run gave %v", name, i, y[i], x[i])
			return ref
		}
	}
	return ref
}

var kernelKinds = []string{"conv", "depthwise", "norm_act", "head"}

// kernelKind groups layer kinds the way the per-layer kernel metrics
// report them.
func kernelKind(k nn.OpKind) string {
	switch k {
	case nn.OpConv:
		return "conv"
	case nn.OpDepthwiseConv:
		return "depthwise"
	case nn.OpBatchNorm, nn.OpReLU, nn.OpLRN, nn.OpEltwiseAdd, nn.OpConcat:
		return "norm_act"
	default: // pooling, fully connected, softmax, flatten, dropout
		return "head"
	}
}

// profileEngine runs the QS-DNN pipeline on the real engine: it
// profiles with one sample, compiles and searches the table, and
// compares the table's prediction for the frozen plan with the measured
// median.
func profileEngine(c *runCtx, res *result, net *nn.Network, eng *engine.Engine, in *tensor.Tensor, fp *frozenPlan, measuredMS float64) error {
	sp := c.tr.open(0, "profile.Run")
	t := time.Now()
	src, err := engine.NewSource(eng, in)
	if err != nil {
		return err
	}
	tab, err := profile.Run(net, src, profile.Options{Mode: primitives.ModeCPU, Samples: 1})
	if err != nil {
		return err
	}
	c.tr.close(sp, map[string]any{"network": net.Name, "samples": 1})
	res.addLayer("profile.run_s", "s", time.Since(t).Seconds())
	res.addLayer("profile.pred_err_pct", "%", (tab.TotalTime(fp.plan)*1e3/measuredMS-1)*100)
	searchLayers(c, res, []*refSearch{{tab: tab, seeds: []int64{c.seed}}})
	return nil
}

// gemmRate counts the floating-point operations of the plan's convs
// that lower to the packed GEMM, and times gemm.Parallel with one
// worker on those same shapes.
func gemmRate(c *runCtx, net *nn.Network, plan []primitives.ID) (flop, gflops float64) {
	shapes := gemmShapes(net, plan)
	for _, s := range shapes {
		flop += 2 * float64(s[0]) * float64(s[1]) * float64(s[2])
	}
	if len(shapes) == 0 {
		return 0, 0
	}
	var passes []float64
	for rep := 0; rep < c.sz.gemmReps; rep++ {
		sp := c.tr.open(0, "gemm.Parallel pass")
		var d time.Duration
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			a, b, out := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
			t := time.Now()
			gemm.Parallel(m, n, k, a, b, out, 1)
			d += time.Since(t)
		}
		c.tr.close(sp, map[string]any{"shapes": len(shapes)})
		passes = append(passes, d.Seconds())
	}
	return flop, flop / median(passes) / 1e9
}

// gemmShapes lists the (M, N, K) of every gemm.Parallel call the engine
// makes for the plan, following its conv dispatch: Vanilla and Sparse
// run direct code, Winograd, FFT and NHWC primitives their own kernels,
// ATLAS the naive GEMM, and grouped convs a per-group path.
func gemmShapes(net *nn.Network, plan []primitives.ID) [][3]int {
	var out [][3]int
	for i, l := range net.Layers {
		if l.Kind != nn.OpConv || kernels.IsGrouped(l.Conv) {
			continue
		}
		p := primitives.ByID(plan[i])
		switch {
		case p.Lib == primitives.Vanilla, p.Lib == primitives.Sparse, p.Lib == primitives.ATLAS,
			p.Algo == primitives.WinogradAlgo, p.Algo == primitives.FFTAlgo, p.Layout == tensor.NHWC:
			continue
		}
		oc, c := l.Conv.OutChannels, l.InShape.C
		spatial := l.OutShape.H * l.OutShape.W
		ckk := c * l.Conv.KernelH * l.Conv.KernelW
		switch p.Lower {
		case primitives.Im2col:
			out = append(out, [3]int{oc, spatial, ckk})
		case primitives.Im2row:
			out = append(out, [3]int{spatial, oc, ckk})
		case primitives.Kn2row:
			for range l.Conv.KernelH * l.Conv.KernelW {
				out = append(out, [3]int{oc, spatial, c})
			}
		}
	}
	return out
}
