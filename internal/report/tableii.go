// Package report regenerates the paper's evaluation artifacts: Table
// II (per-library, BSL, QS-DNN and Random-Search speedups over the
// Vanilla baseline for every network, in CPU and GPGPU modes), the
// Fig. 4 learning curve, the Fig. 5 RL-vs-RS budget sweep and the
// Fig. 1 greedy-trap demonstration. The same functions back the cmd/
// tools and the bench_test.go benchmarks.
package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/searchplan"
)

// Options scales the experiments; zero values select the paper's
// settings.
type Options struct {
	// Episodes is the search budget per network (paper: 1000).
	Episodes int
	// Samples is the profiling average count (paper: 50).
	Samples int
	// Seed drives everything; fixed seed = identical tables.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Episodes == 0 {
		o.Episodes = 1000
	}
	if o.Samples == 0 {
		o.Samples = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// cpuLibs and gpuLibs are the library columns of Table II.
var cpuLibs = []primitives.Library{
	primitives.ATLAS, primitives.OpenBLAS, primitives.NNPACK,
	primitives.ArmCL, primitives.Sparse,
}
var gpuLibs = []primitives.Library{primitives.CuDNN, primitives.CuBLAS}

// Row is one network's line of Table II. All speedups are relative to
// the all-Vanilla baseline of the same mode (>1 is faster).
type Row struct {
	// Network is the architecture name.
	Network string
	// LibSpeedupCPU maps each CPU library to its whole-library
	// substitution speedup (CPU mode).
	LibSpeedupCPU map[string]float64
	// LibSpeedupGPU maps the GPU libraries to their substitution
	// speedup (GPGPU mode).
	LibSpeedupGPU map[string]float64
	// BSLCPU / BSLGPU name the best single library per mode.
	BSLCPU, BSLGPU string
	// QSDNNCPU / QSDNNGPU are QS-DNN's speedups over Vanilla.
	QSDNNCPU, QSDNNGPU float64
	// QSvsBSLCPU / QSvsBSLGPU are QS-DNN's improvements over the best
	// single library.
	QSvsBSLCPU, QSvsBSLGPU float64
	// RSGPU is Random Search's speedup over Vanilla at the same
	// episode budget (GPGPU mode).
	RSGPU float64
	// QSvsRSGPU is QS-DNN's improvement over Random Search.
	QSvsRSGPU float64
	// VanillaCPUSeconds / VanillaGPGPUSeconds are the baselines.
	VanillaCPUSeconds, VanillaGPGPUSeconds float64
	// QSDNNGPUUsesGPU reports whether the GPGPU-mode winner actually
	// touches the GPU (false for LeNet-5: pure CPU wins).
	QSDNNGPUUsesGPU bool
}

// profiledTable builds the LUT for one network and mode (the figure
// generators profile outside the batch runner).
func profiledTable(net *nn.Network, pl *platform.Platform, mode primitives.Mode, opts Options) (*lut.Table, error) {
	return profile.Run(net, profile.NewSimSource(net, pl), profile.Options{Mode: mode, Samples: opts.Samples})
}

// TableIIParallel computes Table II through the batch runner: every
// (network, mode) pair is one job fanned across a bounded worker pool
// with best-of-seeds searches, and each pair is profiled exactly once
// (single-flight LUT cache). Rows come back in input order; with
// workers == 1 and seeds == 1 the output is identical to the original
// sequential sweep.
func TableIIParallel(networks []string, pl *platform.Platform, opts Options, workers, seeds int) ([]Row, error) {
	opts = opts.withDefaults()
	if seeds <= 0 {
		seeds = 1
	}
	seedList := make([]int64, seeds)
	for i := range seedList {
		seedList[i] = opts.Seed + int64(i)
	}
	jobs := make([]runner.Job, 0, 2*len(networks))
	for _, name := range networks {
		for _, mode := range []primitives.Mode{primitives.ModeCPU, primitives.ModeGPGPU} {
			jobs = append(jobs, runner.Job{
				Network:  name,
				Mode:     mode,
				Seeds:    seedList,
				Episodes: opts.Episodes,
				Samples:  opts.Samples,
			})
		}
	}
	batch, err := runner.Run(jobs, runner.Options{Workers: workers, Platform: pl})
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rows := make([]Row, len(networks))
	for i := range networks {
		rows[i] = tableIIRow(&batch.Jobs[2*i], &batch.Jobs[2*i+1], opts)
	}
	return rows, nil
}

// tableIIRow assembles one row from a network's CPU-mode and
// GPGPU-mode job results.
func tableIIRow(cpu, gpu *runner.JobResult, opts Options) Row {
	row := Row{
		Network:       cpu.Job.Network,
		LibSpeedupCPU: map[string]float64{},
		LibSpeedupGPU: map[string]float64{},
	}

	// CPU mode.
	cpuTab := cpu.Table
	vanCPU := cpu.VanillaSeconds
	row.VanillaCPUSeconds = vanCPU
	bslCPU := vanCPU
	row.BSLCPU = primitives.Vanilla.String()
	for _, lib := range cpuLibs {
		t := core.SingleLibrary(cpuTab, lib).Time
		row.LibSpeedupCPU[lib.String()] = vanCPU / t
		if t < bslCPU {
			bslCPU, row.BSLCPU = t, lib.String()
		}
	}
	row.QSDNNCPU = vanCPU / cpu.Best.Time
	row.QSvsBSLCPU = bslCPU / cpu.Best.Time

	// GPGPU mode.
	gpuTab := gpu.Table
	vanGPU := gpu.VanillaSeconds
	row.VanillaGPGPUSeconds = vanGPU
	bslGPU := vanGPU
	row.BSLGPU = primitives.Vanilla.String()
	for _, lib := range append(append([]primitives.Library{}, cpuLibs...), gpuLibs...) {
		t := core.SingleLibrary(gpuTab, lib).Time
		if lib == primitives.CuDNN || lib == primitives.CuBLAS {
			row.LibSpeedupGPU[lib.String()] = vanGPU / t
		}
		if t < bslGPU {
			bslGPU, row.BSLGPU = t, lib.String()
		}
	}
	row.QSDNNGPU = vanGPU / gpu.Best.Time
	row.QSvsBSLGPU = bslGPU / gpu.Best.Time
	for _, id := range gpu.Best.Assignment {
		if primitives.ByID(id).Proc == primitives.GPU {
			row.QSDNNGPUUsesGPU = true
			break
		}
	}

	rs := core.RandomSearchPlanned(searchplan.Compile(gpuTab), opts.Episodes, opts.Seed)
	row.RSGPU = vanGPU / rs.Time
	row.QSvsRSGPU = rs.Time / gpu.Best.Time
	return row
}

// FormatTableII renders rows as a fixed-width text table in the
// paper's layout.
func FormatTableII(rows []Row) string {
	var b strings.Builder
	cpuCols := make([]string, 0, len(cpuLibs))
	for _, l := range cpuLibs {
		cpuCols = append(cpuCols, l.String())
	}
	gpuCols := make([]string, 0, len(gpuLibs))
	for _, l := range gpuLibs {
		gpuCols = append(gpuCols, l.String())
	}
	fmt.Fprintf(&b, "Inference-time speedup over Vanilla (dependency-free) baseline\n\n")
	fmt.Fprintf(&b, "%-13s", "Network")
	for _, c := range cpuCols {
		fmt.Fprintf(&b, " %9s", c)
	}
	fmt.Fprintf(&b, " %9s %9s |", "QS(CPU)", "QS/BSL")
	for _, c := range gpuCols {
		fmt.Fprintf(&b, " %9s", c)
	}
	fmt.Fprintf(&b, " %9s %9s %9s %9s\n", "QS(GPU)", "QS/BSL", "RS(GPU)", "QS/RS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s", r.Network)
		for _, c := range cpuCols {
			fmt.Fprintf(&b, " %8.1fx", r.LibSpeedupCPU[c])
		}
		fmt.Fprintf(&b, " %8.1fx %8.2fx |", r.QSDNNCPU, r.QSvsBSLCPU)
		for _, c := range gpuCols {
			fmt.Fprintf(&b, " %8.1fx", r.LibSpeedupGPU[c])
		}
		gpuNote := ""
		if !r.QSDNNGPUUsesGPU {
			gpuNote = "*" // pure-CPU winner (LeNet-5 in the paper)
		}
		fmt.Fprintf(&b, " %7.1fx%s %8.2fx %8.1fx %8.2fx\n",
			r.QSDNNGPU, gpuNote, r.QSvsBSLGPU, r.RSGPU, r.QSvsRSGPU)
	}
	fmt.Fprintf(&b, "\n* GPGPU-mode winner uses no GPU primitive (transfers outweigh gains).\n")

	// Paper headline aggregates.
	var maxCPU, sumBSL float64
	n := 0.0
	for _, r := range rows {
		if r.QSDNNCPU > maxCPU {
			maxCPU = r.QSDNNCPU
		}
		sumBSL += r.QSvsBSLGPU
		n++
	}
	fmt.Fprintf(&b, "\nHeadlines: best CPU speedup vs Vanilla %.0fx (paper: 45x); "+
		"mean GPGPU speedup vs BSL %.2fx (paper: ~2x)\n", maxCPU, sumBSL/n)
	return b.String()
}
