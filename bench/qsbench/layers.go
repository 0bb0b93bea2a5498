package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/searchplan"
)

// Per-layer metrics of layers only some workloads call into. Every
// traced run reports every per-layer metric; a workload that makes no
// call into one of these layers reports 0 for its metrics. They are
// shares, counts and rates rather than times for that reason: a time
// must never read the same on every run.
var (
	engineLayers = []metric{
		{"engine.kernel_pct", 0, "%"},
		{"engine.convert_pct", 0, "%"},
		{"engine.other_pct", 0, "%"},
		{"kernels.conv_pct", 0, "%"},
		{"kernels.depthwise_pct", 0, "%"},
		{"kernels.norm_act_pct", 0, "%"},
		{"kernels.head_pct", 0, "%"},
		{"gemm.gflop_per_op", 0, "GFLOP"},
		{"gemm.gflops", 0, "GFLOP/s"},
		{"profile.pred_err_pct", 0, "%"},
	}
	serveLayers = []metric{
		{"serve.hit_pct", 0, "%"},
		{"serve.searches", 0, "count"},
		{"serve.coalesced", 0, "count"},
		{"serve.rejected", 0, "count"},
		{"serve.miss_x_search", 0, "x"},
	}
)

func addAbsentLayers(res *result, sets ...[]metric) {
	for _, s := range sets {
		res.layer = append(res.layer, s...)
	}
}

// refSearch is one table the traced infer and serve-mix runs search
// with the benchmark's own calls, once per seed.
type refSearch struct {
	tab   *lut.Table
	seeds []int64
	ms    []float64 // wall time of each search, filled by searchLayers
}

// searchLayers compiles and searches every refSearch and reports the
// searchplan and core per-layer metrics over those calls.
func searchLayers(c *runCtx, res *result, refs []*refSearch) {
	var compileS, allocs, kbytes, gaps []float64
	var searchS, layerSteps float64
	var a, b runtime.MemStats
	for _, ref := range refs {
		sp := c.tr.open(0, "searchplan.Compile")
		t := time.Now()
		plan := searchplan.Compile(ref.tab)
		compileS = append(compileS, time.Since(t).Seconds())
		c.tr.close(sp, map[string]any{"network": ref.tab.Network, "mode": ref.tab.Mode.String()})
		opt, err := core.OptimalPlanned(plan) // errors on non-chain networks
		for _, seed := range ref.seeds {
			runtime.ReadMemStats(&a)
			sp := c.tr.open(0, "core.SearchPlanned")
			t := time.Now()
			r := core.SearchPlanned(plan, core.Config{Episodes: c.sz.episodes, Seed: seed})
			d := time.Since(t)
			c.tr.close(sp, map[string]any{"network": ref.tab.Network, "mode": ref.tab.Mode.String(), "seed": seed})
			runtime.ReadMemStats(&b)
			ref.ms = append(ref.ms, d.Seconds()*1e3)
			searchS += d.Seconds()
			layerSteps += float64(r.Episodes * (plan.NumLayers() - 1))
			allocs = append(allocs, float64(b.Mallocs-a.Mallocs))
			kbytes = append(kbytes, float64(b.TotalAlloc-a.TotalAlloc)/1024)
			if err == nil {
				gaps = append(gaps, (r.Time/opt.Time-1)*100)
			}
		}
	}
	res.addLayer("searchplan.compile_ms", "ms", mean(compileS)*1e3)
	res.addLayer("core.layer_steps_per_s", "1/s", layerSteps/searchS)
	res.addLayer("core.allocs_per_search", "count", mean(allocs))
	res.addLayer("core.kb_per_search", "KB", mean(kbytes))
	res.addLayer("core.chain_gap_pct", "%", mean(gaps))
}
