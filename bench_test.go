// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out and microbenches
// of the real compute kernels. Result quality is exposed through
// b.ReportMetric custom metrics (ms_* = inference milliseconds of the
// found configuration, x_* = speedup ratios), so `go test -bench=.`
// regenerates both the numbers and the costs of producing them.
package qsdnn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/kernels"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/qlearn"
	"repro/internal/report"
	"repro/internal/searchplan"
	"repro/internal/tensor"
)

// benchTables caches profiled LUTs across benchmarks (profiling is
// deterministic, so sharing changes nothing).
var (
	benchMu     sync.Mutex
	benchTables = map[string]*lut.Table{}
)

func benchTable(b *testing.B, network string, mode primitives.Mode) *lut.Table {
	b.Helper()
	key := fmt.Sprintf("%s/%v", network, mode)
	benchMu.Lock()
	defer benchMu.Unlock()
	if t, ok := benchTables[key]; ok {
		return t
	}
	net := models.MustBuild(network)
	pl := platform.JetsonTX2Like()
	t, err := profile.Run(net, profile.NewSimSource(net, pl), profile.Options{Mode: mode, Samples: 50})
	if err != nil {
		b.Fatal(err)
	}
	benchTables[key] = t
	return t
}

// BenchmarkTableII regenerates one Table II row per network per
// iteration (both modes, 1000 episodes, Random-Search comparison) and
// reports the headline ratios as custom metrics.
func BenchmarkTableII(b *testing.B) {
	for _, network := range models.TableIINetworks() {
		b.Run(network, func(b *testing.B) {
			pl := platform.JetsonTX2Like()
			var row report.Row
			for i := 0; i < b.N; i++ {
				rows, err := report.TableIIParallel([]string{network}, pl, report.Options{Episodes: 1000, Samples: 20, Seed: 1}, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.QSDNNCPU, "x_qsdnn_cpu")
			b.ReportMetric(row.QSDNNGPU, "x_qsdnn_gpgpu")
			b.ReportMetric(row.QSvsBSLGPU, "x_vs_bsl_gpgpu")
			b.ReportMetric(row.QSvsRSGPU, "x_vs_rs_gpgpu")
		})
	}
}

// BenchmarkFig1GreedyTrap measures the greedy-vs-RL gap of Fig. 1 on
// the heterogeneous MobileNet table.
func BenchmarkFig1GreedyTrap(b *testing.B) {
	tab := benchTable(b, "mobilenet-v1", primitives.ModeGPGPU)
	var greedy, rl float64
	for i := 0; i < b.N; i++ {
		greedy = core.GreedyPlanned(searchplan.Compile(tab)).Time
		rl = core.Search(tab, core.Config{Episodes: 1000, Seed: 1}).Time
	}
	b.ReportMetric(greedy*1e3, "ms_greedy")
	b.ReportMetric(rl*1e3, "ms_qsdnn")
	b.ReportMetric(greedy/rl, "x_greedy_over_qsdnn")
}

// BenchmarkFig4LearningCurve runs the paper's 1000-episode MobileNet
// search (500 exploration episodes, ε −0.1 every 50 thereafter) and
// reports where the curve lands.
func BenchmarkFig4LearningCurve(b *testing.B) {
	tab := benchTable(b, "mobilenet-v1", primitives.ModeGPGPU)
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = core.Search(tab, core.Config{Episodes: 1000, Seed: 1})
	}
	b.ReportMetric(res.Curve[0].Time*1e3, "ms_first_episode")
	b.ReportMetric(res.Time*1e3, "ms_converged")
	b.ReportMetric(res.Curve[0].Time/res.Time, "x_curve_drop")
}

// BenchmarkFig5RLvsRS sweeps episode budgets with 5 complete searches
// per point (the paper's protocol) and reports the RS/RL ratio at 350
// episodes, where the paper says RS is "twice as worse".
func BenchmarkFig5RLvsRS(b *testing.B) {
	pl := platform.JetsonTX2Like()
	var points []report.Fig5Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = report.Fig5("mobilenet-v1", pl, 5, report.Options{Episodes: 1000, Samples: 20, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		if pt.Episodes == 350 {
			b.ReportMetric(pt.RSMean/pt.RLMean, "x_rs_over_rl_at_350")
		}
		if pt.Episodes == 25 {
			b.ReportMetric(pt.RSMean/pt.RLMean, "x_rs_over_rl_at_25")
		}
	}
}

// BenchmarkSearchWallClock times the search phase alone on the largest
// design spaces — the paper reports convergence "in less than 10 min"
// on a standard CPU; here it is seconds.
func BenchmarkSearchWallClock(b *testing.B) {
	for _, network := range []string{"googlenet", "vgg19", "resnet50"} {
		b.Run(network, func(b *testing.B) {
			tab := benchTable(b, network, primitives.ModeGPGPU)
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Search(tab, core.Config{Episodes: 1000, Seed: 1})
			}
			b.ReportMetric(res.Time*1e3, "ms_solution")
		})
	}
}

// BenchmarkProfilePhase times the inference phase (50-sample
// whole-library substitution plus the compatibility pass).
func BenchmarkProfilePhase(b *testing.B) {
	for _, network := range []string{"lenet5", "mobilenet-v1", "googlenet"} {
		b.Run(network, func(b *testing.B) {
			b.ReportAllocs()
			net := models.MustBuild(network)
			pl := platform.JetsonTX2Like()
			for i := 0; i < b.N; i++ {
				if _, err := profile.Run(net, profile.NewSimSource(net, pl),
					profile.Options{Mode: primitives.ModeGPGPU, Samples: 50}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfilePhaseEngine times the profiling phase on the real
// inference engine (host-CPU kernel executions, the `-engine` CLI
// path) rather than the platform simulator — the phase the packed
// parallel kernel layer accelerates. kernel-workers 1 isolates the
// packing win; NumCPU adds the multicore scaling on real hardware.
func BenchmarkProfilePhaseEngine(b *testing.B) {
	net := models.MustBuild("lenet5")
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("kernel-workers=%d", workers), func(b *testing.B) {
			eng := engine.New(net, 7, 0.35, engine.Parallelism(workers))
			input := tensor.New(net.InputShape, tensor.NCHW)
			input.FillRandom(rand.New(rand.NewSource(2)), 1)
			src, err := engine.NewSource(eng, input)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := profile.Run(net, src, profile.Options{Mode: primitives.ModeCPU, Samples: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationShaping compares reward shaping (per-layer negated
// times, the paper's choice) against a single terminal reward.
func BenchmarkAblationShaping(b *testing.B) {
	tab := benchTable(b, "mobilenet-v1", primitives.ModeGPGPU)
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"shaped", false}, {"terminal-only", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Search(tab, core.Config{Episodes: 1000, Seed: 1, DisableShaping: tc.disable})
			}
			b.ReportMetric(res.Time*1e3, "ms_solution")
		})
	}
}

// BenchmarkAblationReplay compares experience replay off/on and across
// buffer sizes (the paper uses 128 following Baker et al.).
func BenchmarkAblationReplay(b *testing.B) {
	tab := benchTable(b, "mobilenet-v1", primitives.ModeGPGPU)
	run := func(b *testing.B, cfg core.Config) {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			res = core.Search(tab, cfg)
		}
		b.ReportMetric(res.Time*1e3, "ms_solution")
	}
	b.Run("off", func(b *testing.B) {
		run(b, core.Config{Episodes: 1000, Seed: 1, DisableReplay: true})
	})
	for _, size := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("size-%d", size), func(b *testing.B) {
			run(b, core.Config{
				Episodes: 1000, Seed: 1,
				Agent: qlearn.Config{Alpha: 0.05, Gamma: 0.9, ReplaySize: size},
			})
		})
	}
}

// BenchmarkAblationSchedule compares the paper's 50%/5% ε schedule
// against a linear decay and a fixed ε.
func BenchmarkAblationSchedule(b *testing.B) {
	tab := benchTable(b, "mobilenet-v1", primitives.ModeGPGPU)
	const episodes = 1000
	linear := make([]qlearn.Phase, 0, 10)
	for i := 0; i < 10; i++ {
		linear = append(linear, qlearn.Phase{Epsilon: 1 - float64(i)/9, Episodes: episodes / 10})
	}
	schedules := []struct {
		name   string
		phases []qlearn.Phase
	}{
		{"paper-50-5", qlearn.PaperSchedule(episodes)},
		{"linear", linear},
		{"fixed-0.1", []qlearn.Phase{{Epsilon: 0.1, Episodes: episodes}}},
	}
	for _, s := range schedules {
		b.Run(s.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Search(tab, core.Config{Episodes: episodes, Seed: 1, Schedule: s.phases})
			}
			b.ReportMetric(res.Time*1e3, "ms_solution")
		})
	}
}

// BenchmarkAblationAlphaGamma sweeps the learning rate and discount
// factor around the paper's (0.05, 0.9).
func BenchmarkAblationAlphaGamma(b *testing.B) {
	tab := benchTable(b, "mobilenet-v1", primitives.ModeGPGPU)
	for _, cfg := range []struct {
		alpha, gamma float64
	}{{0.05, 0.9}, {0.2, 0.9}, {0.05, 0.5}, {0.01, 0.99}} {
		b.Run(fmt.Sprintf("a%.2f-g%.2f", cfg.alpha, cfg.gamma), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Search(tab, core.Config{
					Episodes: 1000, Seed: 1,
					Agent: qlearn.Config{Alpha: cfg.alpha, Gamma: cfg.gamma, ReplaySize: 128},
				})
			}
			b.ReportMetric(res.Time*1e3, "ms_solution")
		})
	}
}

// BenchmarkConvKernels measures the real compute kernels on a
// VGG-like 3x3 convolution — the concrete speed differences the
// primitive registry abstracts.
func BenchmarkConvKernels(b *testing.B) {
	in := tensor.New(tensor.Shape{N: 1, C: 32, H: 28, W: 28}, tensor.NCHW)
	in.FillRandom(rand.New(rand.NewSource(1)), 1)
	p := nn.ConvParams{OutChannels: 32, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := make([]float32, 32*32*9)
	for i := range w {
		w[i] = rand.New(rand.NewSource(int64(i))).Float32()
	}
	bias := make([]float32, 32)
	variants := []struct {
		name string
		run  func()
	}{
		{"direct", func() { kernels.ConvDirect(nil, in, w, bias, p, 1) }},
		{"im2col-naive", func() { kernels.ConvIm2col(nil, in, w, bias, p, kernels.Naive, 1, 0, nil) }},
		{"im2col-packed", func() { kernels.ConvIm2col(nil, in, w, bias, p, kernels.Packed, 1, 0, nil) }},
		{"im2row-packed", func() { kernels.ConvIm2row(nil, in, w, bias, p, kernels.Packed, 1, 0, nil) }},
		{"kn2row-packed", func() { kernels.ConvKn2row(nil, in, w, bias, p, kernels.Packed, 1, nil) }},
		{"winograd", func() { kernels.ConvWinograd(nil, in, w, bias, p, 1, nil) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.run()
			}
		})
	}
}

// BenchmarkGemm measures the naive GEMM at a conv-lowering shape.
func BenchmarkGemm(b *testing.B) {
	const m, n, k = 64, 784, 288
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%7) * 0.1
	}
	for i := range bb {
		bb[i] = float32(i%5) * 0.1
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gemm.Naive(m, n, k, a, bb, c)
		}
	})
}

// BenchmarkPBQPvsRL compares the prior-art PBQP solver against the RL
// search on a chain (both exact) and on branchy graphs (PBQP falls
// back to heuristic RN reductions).
func BenchmarkPBQPvsRL(b *testing.B) {
	for _, network := range []string{"mobilenet-v1", "googlenet", "resnet50"} {
		tab := benchTable(b, network, primitives.ModeGPGPU)
		b.Run(network+"/pbqp", func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.PBQP(tab)
			}
			b.ReportMetric(res.Time*1e3, "ms_solution")
		})
		b.Run(network+"/rl", func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Search(tab, core.Config{Episodes: 1000, Seed: 1})
			}
			b.ReportMetric(res.Time*1e3, "ms_solution")
		})
	}
}

// BenchmarkParetoFront sweeps the latency/energy trade-off (future-
// work extension) and reports the corners of the front.
func BenchmarkParetoFront(b *testing.B) {
	net := models.MustBuild("squeezenet")
	pl := platform.JetsonTX2Like()
	opts := profile.Options{Mode: primitives.ModeGPGPU, Samples: 20}
	tt, err := profile.Run(net, profile.NewSimSource(net, pl), opts)
	if err != nil {
		b.Fatal(err)
	}
	et, err := profile.Run(net, profile.NewSimEnergySource(net, pl), opts)
	if err != nil {
		b.Fatal(err)
	}
	var front []core.ParetoPoint
	for i := 0; i < b.N; i++ {
		front, err = core.ParetoFront(tt, et, []float64{0, 0.1, 1, 10, 100}, core.Config{Episodes: 600, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(front) > 0 {
		b.ReportMetric(front[0].Seconds*1e3, "ms_fastest")
		b.ReportMetric(front[len(front)-1].Joules*1e3, "mJ_frugalest")
	}
}

// BenchmarkConvFFTKernel measures the FFT convolution against direct
// and im2col on the Inception 5x5 geometry.
func BenchmarkConvFFTKernel(b *testing.B) {
	in := tensor.New(tensor.Shape{N: 1, C: 16, H: 14, W: 14}, tensor.NCHW)
	in.FillRandom(rand.New(rand.NewSource(1)), 1)
	p := nn.ConvParams{OutChannels: 32, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	w := make([]float32, 32*16*25)
	rng := rand.New(rand.NewSource(2))
	for i := range w {
		w[i] = rng.Float32()
	}
	bias := make([]float32, 32)
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.ConvFFT(nil, in, w, bias, p, 1)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.ConvDirect(nil, in, w, bias, p, 1)
		}
	})
	b.Run("im2col", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.ConvIm2col(nil, in, w, bias, p, kernels.Packed, 1, 0, nil)
		}
	})
}

// BenchmarkMemoryBoundKernels measures ReLU, BatchNorm and the 3x3
// depth-wise conv, the three memory-bound kernels of a MobileNet block,
// on mobilenet-v1-025's shapes: the 112x112 planes of the first
// depth-wise layers at stride 1 and 2 and the 14x14 and 7x7 planes of
// the last ones. Each runs under the dispatched kernel's rows
// (gemm.ActiveKernel) from a fixed random input into a separate
// output, and reports ns per output element.
func BenchmarkMemoryBoundKernels(b *testing.B) {
	shapes := []struct {
		name   string
		in     tensor.Shape
		stride int
	}{
		{"8x112x112-s1", tensor.Shape{N: 1, C: 8, H: 112, W: 112}, 1},
		{"16x112x112-s2", tensor.Shape{N: 1, C: 16, H: 112, W: 112}, 2},
		{"128x14x14-s1", tensor.Shape{N: 1, C: 128, H: 14, W: 14}, 1},
		{"256x7x7-s1", tensor.Shape{N: 1, C: 256, H: 7, W: 7}, 1},
	}
	rng := rand.New(rand.NewSource(5))
	for _, sh := range shapes {
		in := tensor.New(sh.in, tensor.NCHW)
		in.FillRandom(rng, 1)
		out := tensor.New(sh.in, tensor.NCHW)
		scale, shift := make([]float32, sh.in.C), make([]float32, sh.in.C)
		for c := range scale {
			scale[c], shift[c] = rng.Float32()+0.5, rng.Float32()-0.5
		}
		p := nn.ConvParams{KernelH: 3, KernelW: 3, StrideH: sh.stride, StrideW: sh.stride, PadH: 1, PadW: 1}
		w, bias := make([]float32, sh.in.C*9), make([]float32, sh.in.C)
		for i := range w {
			w[i] = rng.Float32()*2 - 1
		}
		dwOut := kernels.DepthwiseDirect(nil, in, w, bias, p, 1)
		run := func(name string, elems int, op func()) {
			b.Run(name+"/"+sh.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/elem")
			})
		}
		if sh.stride == 1 {
			run("relu", len(in.Data()), func() { kernels.ReLU(out, in) })
			run("batchnorm", len(in.Data()), func() { kernels.BatchNorm(out, in, scale, shift) })
		}
		run("depthwise", len(dwOut.Data()), func() { kernels.DepthwiseDirect(dwOut, in, w, bias, p, 1) })
	}
}

// BenchmarkAblationProfilingNoise measures robustness to measurement
// noise: profile at increasing jitter, search on the noisy table, then
// evaluate the found assignment against the noise-free table. The
// reported ms_true is what the configuration would actually cost —
// the paper's 50-image averaging exists precisely to keep this close
// to the noise-free optimum.
func BenchmarkAblationProfilingNoise(b *testing.B) {
	net := models.MustBuild("mobilenet-v1")
	clean := platform.JetsonTX2Like()
	clean.MeasurementNoise = 0
	cleanTab, err := profile.Run(net, profile.NewSimSource(net, clean),
		profile.Options{Mode: primitives.ModeGPGPU, Samples: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, noise := range []float64{0, 0.05, 0.20, 0.50} {
		b.Run(fmt.Sprintf("noise-%.0f%%", noise*100), func(b *testing.B) {
			pl := platform.JetsonTX2Like()
			pl.MeasurementNoise = noise
			var trueTime float64
			for i := 0; i < b.N; i++ {
				noisyTab, err := profile.Run(net, profile.NewSimSource(net, pl),
					profile.Options{Mode: primitives.ModeGPGPU, Samples: 50})
				if err != nil {
					b.Fatal(err)
				}
				res := core.Search(noisyTab, core.Config{Episodes: 1000, Seed: 1})
				trueTime = cleanTab.TotalTime(res.Assignment)
			}
			b.ReportMetric(trueTime*1e3, "ms_true")
		})
	}
}

// BenchmarkOptimizeBatch measures the batch orchestrator's throughput
// at one worker (pure sequential, pool bypassed) versus an 8-worker
// pool, over a mixed batch with best-of-2 seeds per job (8 units).
// The ms_batch metric is the wall-clock of one whole batch; on a host
// with C cores the pooled variant divides it by roughly min(C, 8),
// while on a single core it exposes the scheduling overhead instead.
func BenchmarkOptimizeBatch(b *testing.B) {
	b.Logf("GOMAXPROCS=%d NumCPU=%d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	jobs := []BatchJob{
		{Network: "lenet5", Mode: ModeGPGPU},
		{Network: "mobilenet-v1", Mode: ModeGPGPU},
		{Network: "mobilenet-v1", Mode: ModeCPU},
		{Network: "squeezenet", Mode: ModeGPGPU},
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var batch *BatchReport
			for i := 0; i < b.N; i++ {
				var err error
				batch, err = OptimizeBatch(jobs, BatchOptions{
					Options: Options{Episodes: 300, Samples: 10},
					Workers: workers,
					BestOf:  2,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch.Elapsed.Milliseconds()), "ms_batch")
			b.ReportMetric(float64(batch.ProfileMisses), "profiles")
		})
	}
}
