// Command qsbench is the repository's end-to-end and per-layer
// benchmark. One run executes one workload in its own process; run it
// from the repository root, which it reads the frozen plans from:
//
//	bash bench/qsbench/run.sh --workload search-zoo --seed 1 --seconds 20 --trace 0
//
// A run sets up its workload several times, repeats the workload's unit
// of work until --seconds have passed, checks every output against an
// independent oracle, and prints a host stamp, one JSON line per metric
// and, last, one JSON summary. --trace 1 also records a span for every
// call the benchmark makes into a layer, writes the spans under
// .bench_build/qsbench/, and reports the per-layer metrics instead of
// the end-to-end ones. `qsbench freeze` rewrites the frozen plans the
// infer workloads run. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/gemm"
	"repro/internal/models"
)

// sizes fixes how much work a run does besides its timed duration. The
// tests shrink it; the command always uses fullSizes.
type sizes struct {
	setupReps  int           // least set-ups per run; setup_s is their median
	setupTime  time.Duration // set-ups continue until they took this long, up to maxSetups
	zooNets    []string      // search-zoo networks (each in CPU and GPGPU mode)
	zooSamples int           // search-zoo simulator profiling samples
	episodes   int           // episodes per search, everywhere
	serveNets  []string      // serve-mix networks (each in CPU and GPGPU mode)
	serveRanks int           // distinct agent seeds per serve-mix network and mode per epoch
	serveTop   float64       // requests for the most popular seed; rank r gets serveTop/r^1.2
	serveRefs  int           // served keys checked against serve.ReferencePlan
	refSearch  int           // missed keys re-searched by the traced serve-mix run
	gemmReps   int           // passes over the plan's GEMM shapes in the traced infer run
}

func fullSizes() sizes {
	return sizes{
		setupReps:  5,
		setupTime:  time.Second,
		zooNets:    models.TableIINetworks(),
		zooSamples: 50,
		episodes:   1000,
		serveNets:  []string{"lenet5", "alexnet", "mobilenet-v1-025", "squeezenet", "googlenet"},
		serveRanks: 8,
		serveTop:   40,
		serveRefs:  8,
		refSearch:  12,
		gemmReps:   3,
	}
}

// maxSetups bounds the set-ups of a workload whose set-up is quick.
const maxSetups = 100

// repeatSetup times set-up until it has run sz.setupReps times and for
// sz.setupTime in total, and returns the median time of one. Each call
// of fn returns an undo that repeatSetup runs, untimed, before the next
// call; the last undo is returned for the caller to run when done.
func repeatSetup(c *runCtx, fn func(parent int) (undo func(), err error)) (float64, func(), error) {
	var times []float64
	var spent time.Duration
	undo := noUndo
	for len(times) < c.sz.setupReps || (spent < c.sz.setupTime && len(times) < maxSetups) {
		undo()
		sp := c.tr.open(0, "setup")
		t := time.Now()
		u, err := fn(sp)
		d := time.Since(t)
		c.tr.close(sp, nil)
		if err != nil {
			return 0, nil, err
		}
		undo = u
		times = append(times, d.Seconds())
		spent += d
	}
	return median(times), undo, nil
}

func noUndo() {}

// runCtx is what a workload receives.
type runCtx struct {
	seed    int64
	dur     time.Duration
	tr      *tracer // nil unless --trace 1
	sz      sizes
	planDir string
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is a finished run. layer is filled only by traced runs.
type result struct {
	attempted, failed int
	e2e, layer        []metric
	planSHA           string
	checks            map[string]any // digests and sample counts, printed as one line
}

func (r *result) addE2E(name, unit string, v float64) {
	r.e2e = append(r.e2e, metric{name, v, unit})
}

func (r *result) addLayer(name, unit string, v float64) {
	r.layer = append(r.layer, metric{name, v, unit})
}

func (r *result) check(key string, v any) {
	if r.checks == nil {
		r.checks = map[string]any{}
	}
	r.checks[key] = v
}

// fail records a failed check or operation on stderr.
func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "qsbench: check failed: "+format+"\n", args...)
}

var workloads = map[string]func(*runCtx) (*result, error){
	"search-zoo":          runSearchZoo,
	"infer-mobilenet-025": func(c *runCtx) (*result, error) { return runInfer(c, "mobilenet-v1-025") },
	"infer-mobilenet-100": func(c *runCtx) (*result, error) { return runInfer(c, "mobilenet-v1") },
	"serve-mix":           runServeMix,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "freeze" {
		if err := freeze(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "qsbench freeze:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "how long the timed phase repeats its unit of work")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qsbench: need --workload one of %s, --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	c := &runCtx{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), sz: fullSizes(), planDir: "bench/qsbench/plans"}
	if *trace == 1 {
		c.tr = newTracer()
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *workload, *seed, res, c.tr.on()); err != nil {
		fmt.Fprintln(os.Stderr, "qsbench:", err)
		os.Exit(1)
	}
	if c.tr.on() {
		path := fmt.Sprintf(".bench_build/qsbench/spans-%s-seed%d.json", *workload, *seed)
		if err := c.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "qsbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "qsbench: spans written to", path)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// report prints the host stamp, the check line, one line per metric
// (end-to-end, then per-layer when traced) and, last, the summary whose
// metrics are the per-layer ones when traced and the end-to-end ones
// otherwise.
func report(w io.Writer, workload string, seed int64, res *result, traced bool) error {
	enc := json.NewEncoder(w)
	stamp := map[string]any{
		"workload":    workload,
		"seed":        seed,
		"gemm_kernel": gemm.ActiveKernel(),
		"goarch":      runtime.GOARCH,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"numcpu":      runtime.NumCPU(),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"plan_sha256": res.planSHA,
		"traced":      traced,
	}
	if err := enc.Encode(map[string]any{"host": stamp}); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{"workload": workload, "checks": res.checks}); err != nil {
		return err
	}
	summary := res.e2e
	lines := res.e2e
	if traced {
		summary = res.layer
		lines = append(slices.Clone(res.e2e), res.layer...)
	}
	for _, m := range lines {
		if err := enc.Encode(map[string]any{"workload": workload, "metric": m.Name, "value": m.Value, "unit": m.Unit}); err != nil {
			return fmt.Errorf("metric %s: %w", m.Name, err)
		}
	}
	out := map[string]any{}
	for _, m := range summary {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return enc.Encode(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heldHeapMB forces a collection and returns the heap still in use:
// what the workload's system holds after its first unit of work. Unlike
// the peak resident set, it does not depend on when the collector ran.
func heldHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
