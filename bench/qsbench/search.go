package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/searchplan"
)

// zooEntry is one (network, mode) search target of search-zoo.
type zooEntry struct {
	name string
	mode primitives.Mode
	tab  *lut.Table
	plan *searchplan.Plan
	bsl  float64 // best single library time: the plan_x_bsl base
	opt  float64 // exact optimum on chain networks, else 0
}

var searchModes = []primitives.Mode{primitives.ModeCPU, primitives.ModeGPGPU}

// runSearchZoo profiles every Table II network in both modes on the
// simulated TX2-like board, compiles each table, then searches all of
// them, round after round, with fresh agent seeds.
func runSearchZoo(c *runCtx) (*result, error) {
	res := &result{}
	board, _ := platform.Preset("tx2-like")

	var zoo []zooEntry
	var profileS, compileS []float64
	setupS, _, err := repeatSetup(c, func(root int) (func(), error) {
		zoo = zoo[:0]
		var prof, comp time.Duration
		for _, name := range c.sz.zooNets {
			net, err := models.Build(name)
			if err != nil {
				return nil, err
			}
			for _, mode := range searchModes {
				sp := c.tr.open(root, "profile.Run")
				t := time.Now()
				tab, err := profile.Run(net, profile.NewSimSource(net, board), profile.Options{Mode: mode, Samples: c.sz.zooSamples})
				prof += time.Since(t)
				c.tr.close(sp, map[string]any{"network": name, "mode": mode.String()})
				if err != nil {
					return nil, fmt.Errorf("profiling %s/%v: %w", name, mode, err)
				}
				sp = c.tr.open(root, "searchplan.Compile")
				t = time.Now()
				plan := searchplan.Compile(tab)
				comp += time.Since(t)
				c.tr.close(sp, map[string]any{"network": name, "mode": mode.String()})
				zoo = append(zoo, zooEntry{name: name, mode: mode, tab: tab, plan: plan})
			}
		}
		profileS = append(profileS, prof.Seconds())
		compileS = append(compileS, comp.Seconds()/float64(len(zoo)))
		return noUndo, nil
	})
	if err != nil {
		return nil, err
	}

	// Oracles, outside the timed phase: the best single library and,
	// on chains, the exact optimum.
	for i := range zoo {
		e := &zoo[i]
		_, b := core.BestSingleLibrary(e.tab)
		e.bsl = b.Time
		if models.MustBuild(e.name).IsChain() {
			o, err := core.OptimalPlanned(e.plan)
			if err != nil {
				return nil, err
			}
			e.opt = o.Time
		}
	}

	perPlan := make([][]float64, len(zoo)) // search wall time, ms
	var allMS, speedups, gaps []float64
	var searchS, layerSteps, allocs, kbytes float64
	digest := sha256.New()
	timed := c.tr.open(0, "timed")
	var m0, m1, a, b runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rounds := 0
	var heldMB float64
	for ; rounds == 0 || time.Since(start) < c.dur; rounds++ {
		seed := mix(c.seed, int64(rounds))
		for i, e := range zoo {
			if c.tr.on() {
				runtime.ReadMemStats(&a)
			}
			sp := c.tr.open(timed, "core.SearchPlanned")
			t := time.Now()
			r := core.SearchPlanned(e.plan, core.Config{Episodes: c.sz.episodes, Seed: seed})
			d := time.Since(t)
			c.tr.close(sp, map[string]any{"network": e.name, "mode": e.mode.String(), "seed": seed})
			if c.tr.on() {
				runtime.ReadMemStats(&b)
				allocs += float64(b.Mallocs - a.Mallocs)
				kbytes += float64(b.TotalAlloc-a.TotalAlloc) / 1024
			}
			res.attempted++
			if !checkSearch(res, e, r) {
				continue
			}
			ms := d.Seconds() * 1e3
			perPlan[i] = append(perPlan[i], ms)
			allMS = append(allMS, ms)
			searchS += d.Seconds()
			layerSteps += float64(r.Episodes * (e.plan.NumLayers() - 1))
			speedups = append(speedups, e.bsl/r.Time)
			if e.opt > 0 {
				gaps = append(gaps, (r.Time/e.opt-1)*100)
			}
			if rounds == 0 {
				writeResult(digest, r)
			}
		}
		if rounds == 0 {
			heldMB = heldHeapMB()
		}
	}
	runtime.ReadMemStats(&m1)
	c.tr.close(timed, map[string]any{"rounds": rounds})
	if len(allMS) == 0 {
		return nil, fmt.Errorf("every search failed its checks")
	}

	var planMS []float64
	for _, xs := range perPlan {
		if len(xs) > 0 {
			planMS = append(planMS, median(xs))
		}
	}
	res.addE2E("setup_s", "s", setupS)
	res.addE2E("latency_ms", "ms", geomean(planMS))
	res.addE2E("throughput", "1/s", float64(c.sz.episodes*len(planMS))/sum(planMS)*1e3)
	res.addE2E("plan_x_bsl", "x", geomean(speedups))
	res.addE2E("heap_mb", "MB", heldMB)
	res.check("rounds", rounds)
	res.check("searches", len(allMS))
	res.check("round0_digest", hex.EncodeToString(digest.Sum(nil)))

	if c.tr.on() {
		n := float64(len(allMS))
		p, v := tail(allMS)
		res.check("tail_percentile", p)
		res.addLayer("latency_ms_tail", "ms", v)
		res.addLayer("profile.run_s", "s", median(profileS))
		res.addLayer("searchplan.compile_ms", "ms", median(compileS)*1e3)
		res.addLayer("core.layer_steps_per_s", "1/s", layerSteps/searchS)
		res.addLayer("core.allocs_per_search", "count", allocs/n)
		res.addLayer("core.kb_per_search", "KB", kbytes/n)
		res.addLayer("core.chain_gap_pct", "%", mean(gaps))
		addRuntimeLayer(res, float64(m1.Mallocs-m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc), float64(m1.NumGC-m0.NumGC), n)
		addAbsentLayers(res, engineLayers, serveLayers)
	}
	return res, nil
}

// checkSearch verifies one search result against its table: the
// reported time is the table's own price of the assignment bit for bit,
// every choice is a candidate of its layer, and no chain result beats
// the exact optimum.
func checkSearch(res *result, e zooEntry, r *core.Result) bool {
	if len(r.Assignment) != e.plan.NumLayers() {
		res.fail("%s/%v: assignment has %d entries, want %d", e.name, e.mode, len(r.Assignment), e.plan.NumLayers())
		return false
	}
	for i := 1; i < len(r.Assignment); i++ {
		if e.plan.Pos(i, r.Assignment[i]) < 0 {
			res.fail("%s/%v: layer %d chose %d, not a candidate", e.name, e.mode, i, r.Assignment[i])
			return false
		}
	}
	if t := e.tab.TotalTime(r.Assignment); math.Float64bits(t) != math.Float64bits(r.Time) {
		res.fail("%s/%v: reported time %v, table prices the assignment at %v", e.name, e.mode, r.Time, t)
		return false
	}
	if e.opt > 0 && r.Time < e.opt {
		res.fail("%s/%v: found %v below the exact optimum %v", e.name, e.mode, r.Time, e.opt)
		return false
	}
	return true
}

func writeResult(h hash.Hash, r *core.Result) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Time))
	h.Write(buf[:])
	for _, id := range r.Assignment {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// addRuntimeLayer reports allocations, allocated bytes and collections
// per operation of the workload, and the process's peak resident set.
func addRuntimeLayer(res *result, allocs, bytes, gcs, ops float64) {
	res.addLayer("runtime.allocs_per_op", "count", allocs/ops)
	res.addLayer("runtime.mb_per_op", "MB", bytes/(1<<20)/ops)
	res.addLayer("runtime.gc_per_op", "count", gcs/ops)
	res.addLayer("runtime.max_rss_mb", "MB", maxRSSMB())
}
