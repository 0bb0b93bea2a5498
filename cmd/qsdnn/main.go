// Command qsdnn is the CLI front end of the QS-DNN pipeline:
//
//	qsdnn models                      list the model zoo
//	qsdnn profile  -net NAME [...]    run the inference phase, write the LUT as JSON
//	qsdnn search   -net NAME [...]    profile (or load) and run the RL search
//	qsdnn space    -net NAME          show the design-space size per network
//
// Common flags: -mode cpu|gpgpu, -episodes, -samples, -seed, -lut FILE.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"net"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/health"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/resilience"
	"repro/internal/searchplan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensor"

	qsdnn "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	netName := fs.String("net", "mobilenet-v1", "zoo network name (bench-all: comma-separated list or 'all')")
	modeStr := fs.String("mode", "gpgpu", "processor mode: cpu or gpgpu (bench-all also accepts 'both')")
	episodes := fs.Int("episodes", 1000, "search episode budget")
	samples := fs.Int("samples", 50, "profiling samples per measurement")
	seed := fs.Int64("seed", 1, "random seed")
	lutFile := fs.String("lut", "", "LUT JSON file to write (profile) or read (search)")
	platName := fs.String("platform", "tx2-like", "board preset (tx2-like, tx1-like, nano-like, xavier-like, cpu-only)")
	parallel := fs.Int("parallel", 0, "bench-all worker pool size (0 = one per CPU)")
	seeds := fs.Int("seeds", 1, "bench-all best-of-N consecutive seeds per job")
	robust := fs.Bool("robust", false, "profile with the fault-tolerant policy (retry, timeout, robust aggregation, degradation)")
	retries := fs.Int("retries", -1, "robust profiling: retry budget per measurement (-1 = policy default)")
	sampleTimeout := fs.Duration("sample-timeout", 0, "robust profiling: per-measurement timeout (0 = policy default)")
	faultSeed := fs.Int64("fault-seed", 0, "inject a seeded deterministic fault schedule into profiling (0 = off; implies -robust)")
	manifestDir := fs.String("manifest", "", "bench-all: durable run manifest directory; a re-invoked run skips completed, verified jobs")
	checkpointDir := fs.String("checkpoint", "", "search: durable checkpoint directory (periodic snapshots with last-good rotation)")
	resume := fs.Bool("resume", false, "search: continue from the newest valid snapshot in -checkpoint")
	checkpointEvery := fs.Int("checkpoint-every", core.DefaultSnapshotEvery, "search: snapshot cadence in episodes")
	realEngine := fs.Bool("engine", false, "profile on the real host-CPU engine instead of the platform simulator (requires -mode cpu)")
	kernelWorkers := fs.Int("kernel-workers", 0, "engine kernel worker count for -engine profiling (0 = one per CPU)")
	addr := fs.String("addr", "127.0.0.1:8080", "serve: listen address")
	maxInflight := fs.Int("max-inflight", 0, "serve: concurrent searches (0 = one per CPU)")
	queueDepth := fs.Int("queue-depth", 64, "serve: bounded admission queue depth (full queue replies 429)")
	planStore := fs.String("plan-store", "", "serve: durable plan/checkpoint directory (empty = in-memory only, no crash resume)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "serve: graceful-drain budget on SIGINT/SIGTERM before in-flight searches checkpoint and stop")
	maxDeadline := fs.Duration("max-deadline", 0, "serve: cap on per-request deadline_ms budgets; also the default budget for requests without one (0 = uncapped)")
	brownout := fs.Bool("brownout", false, "serve: degraded mode — answer over-budget/failing requests with the newest cached plan of the same network/platform/mode/objective, marked degraded, instead of an error")
	breakerFailures := fs.Int("breaker-failures", 0, "serve: trip a per-(platform,library) circuit breaker after N consecutive profiling failures (0 = breakers off)")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "serve: how long a tripped breaker rejects before half-open probes")
	watchdogStall := fs.Duration("watchdog-stall", 0, "serve: cancel jobs whose progress heartbeat goes quiet for longer than this floor (0 = watchdog off)")
	watchdogMult := fs.Float64("watchdog-multiple", 8, "serve: stall limit as a multiple of each job's learned heartbeat cadence (floor -watchdog-stall)")
	canaryInterval := fs.Duration("canary-interval", 0, "serve: background canary re-profiling cadence; each tick re-measures a deterministic rotating subset of LUT entries and quarantines drifted libraries (0 = off)")
	driftBand := fs.Float64("drift-band", 4, "serve: drift threshold in MAD-scaled band widths — a canary measurement further than this from its stored baseline counts as drifted")
	planTTL := fs.Int64("plan-ttl", 0, "serve: profile epochs a cached plan stays fresh; older plans are served marked revalidating (0 = no TTL)")
	noHeal := fs.Bool("no-heal", false, "serve: disable self-healing re-optimization; quarantined plans stay cached and are served marked revalidating")
	autotune := fs.Bool("autotune", false, "profile/search: run the per-layer kernel autotuner on the real engine (requires -engine -mode cpu); tuned variants join the LUT as extra candidates")
	tunerBudget := fs.Int("tuner-budget", 16, "autotune: real measurements per (layer, primitive) pair; the surrogate model shortlists this many variants out of the full space")
	tunerCache := fs.String("tuner-cache", "", "durable tuned-variant cache file: reused when it matches the network/mode/budget, written after a fresh -autotune run; serve feeds it into every matching table")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if err := validateFlags(fs); err != nil {
		fmt.Fprintln(os.Stderr, "qsdnn:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the context: in-flight work stops claiming,
	// partial batch results are flushed, and the process exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tunerCfg = tunerFlags{autotune: *autotune, budget: *tunerBudget, cache: *tunerCache}
	ft := faultFlags{robust: *robust, retries: *retries, sampleTimeout: *sampleTimeout, faultSeed: *faultSeed}
	df := durableFlags{manifest: *manifestDir, checkpoint: *checkpointDir, resume: *resume, every: *checkpointEvery}
	ef := engineFlags{real: *realEngine, workers: *kernelWorkers, seed: *seed}
	sf := serveFlags{
		addr: *addr, maxInflight: *maxInflight, queueDepth: *queueDepth,
		planStore: *planStore, drainTimeout: *drainTimeout,
		maxDeadline: *maxDeadline, brownout: *brownout,
		breakerFailures: *breakerFailures, breakerCooldown: *breakerCooldown,
		watchdogStall: *watchdogStall, watchdogMult: *watchdogMult,
		canaryInterval: *canaryInterval, driftBand: *driftBand,
		planTTL: *planTTL, noHeal: *noHeal,
		tunerCache: *tunerCache,
	}
	if err := runCtx(ctx, cmd, *netName, *modeStr, *episodes, *samples, *seed, *lutFile, *platName, *parallel, *seeds, ft, df, ef, sf); err != nil {
		fmt.Fprintln(os.Stderr, "qsdnn:", err)
		os.Exit(1)
	}
}

// validateFlags rejects flag values that earlier versions silently
// passed through to the policy layer. Only flags the user explicitly
// set are checked, so the documented sentinel defaults (-retries -1,
// -sample-timeout 0) keep meaning "policy default".
func validateFlags(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		get := func() any { return f.Value.(flag.Getter).Get() }
		switch f.Name {
		case "retries":
			if get().(int) < 0 {
				err = fmt.Errorf("-retries must be >= 0 (got %s)", f.Value)
			}
		case "sample-timeout":
			if get().(time.Duration) <= 0 {
				err = fmt.Errorf("-sample-timeout must be positive (got %s)", f.Value)
			}
		case "seeds":
			if get().(int) < 0 {
				err = fmt.Errorf("-seeds must be >= 0 (got %s)", f.Value)
			}
		case "episodes":
			if get().(int) <= 0 {
				err = fmt.Errorf("-episodes must be positive (got %s)", f.Value)
			}
		case "samples":
			if get().(int) <= 0 {
				err = fmt.Errorf("-samples must be positive (got %s)", f.Value)
			}
		case "checkpoint-every":
			if get().(int) <= 0 {
				err = fmt.Errorf("-checkpoint-every must be positive (got %s)", f.Value)
			}
		case "kernel-workers":
			if get().(int) < 0 {
				err = fmt.Errorf("-kernel-workers must be >= 0 (got %s)", f.Value)
			}
		case "max-inflight":
			if get().(int) < 0 {
				err = fmt.Errorf("-max-inflight must be >= 0 (got %s)", f.Value)
			}
		case "queue-depth":
			if get().(int) <= 0 {
				err = fmt.Errorf("-queue-depth must be positive (got %s)", f.Value)
			}
		case "drain-timeout":
			if get().(time.Duration) < 0 {
				err = fmt.Errorf("-drain-timeout must be >= 0 (got %s)", f.Value)
			}
		case "max-deadline":
			if get().(time.Duration) < 0 {
				err = fmt.Errorf("-max-deadline must be >= 0 (got %s)", f.Value)
			}
		case "breaker-failures":
			if get().(int) < 0 {
				err = fmt.Errorf("-breaker-failures must be >= 0 (got %s)", f.Value)
			}
		case "breaker-cooldown":
			if get().(time.Duration) < 0 {
				err = fmt.Errorf("-breaker-cooldown must be >= 0 (got %s)", f.Value)
			}
		case "watchdog-stall":
			if get().(time.Duration) < 0 {
				err = fmt.Errorf("-watchdog-stall must be >= 0 (got %s)", f.Value)
			}
		case "watchdog-multiple":
			if get().(float64) <= 0 {
				err = fmt.Errorf("-watchdog-multiple must be positive (got %s)", f.Value)
			}
		case "canary-interval":
			if get().(time.Duration) < 0 {
				err = fmt.Errorf("-canary-interval must be >= 0 (got %s)", f.Value)
			}
		case "drift-band":
			if get().(float64) <= 0 {
				err = fmt.Errorf("-drift-band must be positive (got %s)", f.Value)
			}
		case "plan-ttl":
			if get().(int64) < 0 {
				err = fmt.Errorf("-plan-ttl must be >= 0 (got %s)", f.Value)
			}
		case "tuner-budget":
			if get().(int) < 2 {
				err = fmt.Errorf("-tuner-budget must be >= 2 — the default variant plus at least one challenger (got %s)", f.Value)
			}
		}
	})
	return err
}

// durableFlags bundles the crash-safe-state CLI flags.
type durableFlags struct {
	manifest   string
	checkpoint string
	resume     bool
	every      int
}

// serveFlags bundles the daemon CLI flags.
type serveFlags struct {
	addr            string
	maxInflight     int
	queueDepth      int
	planStore       string
	drainTimeout    time.Duration
	maxDeadline     time.Duration
	brownout        bool
	breakerFailures int
	breakerCooldown time.Duration
	watchdogStall   time.Duration
	watchdogMult    float64
	canaryInterval  time.Duration
	driftBand       float64
	planTTL         int64
	noHeal          bool
	tunerCache      string
}

// engineFlags bundles the real-engine profiling CLI flags.
type engineFlags struct {
	real    bool
	workers int
	seed    int64
}

// kernelWorkers resolves the worker count (0 means one per CPU).
func (f engineFlags) kernelWorkers() int {
	if f.workers > 0 {
		return f.workers
	}
	return runtime.NumCPU()
}

// faultFlags bundles the fault-tolerance CLI flags.
type faultFlags struct {
	robust        bool
	retries       int
	sampleTimeout time.Duration
	faultSeed     int64
}

// policy translates the flags into a robust measurement policy; nil
// means the strict legacy path. Fault injection implies the robust
// path — injected faults without recovery would just fail the run.
func (f faultFlags) policy() *qsdnn.RobustPolicy {
	if !f.robust && f.faultSeed == 0 {
		return nil
	}
	pol := qsdnn.DefaultRobustPolicy()
	if f.retries >= 0 {
		pol.MaxRetries = f.retries
	}
	if f.sampleTimeout > 0 {
		pol.SampleTimeout = f.sampleTimeout
	}
	return pol
}

// faults returns the injection schedule, or nil when disabled.
func (f faultFlags) faults() *qsdnn.FaultInjection {
	if f.faultSeed == 0 {
		return nil
	}
	fi := qsdnn.DefaultFaultInjection(f.faultSeed)
	return &fi
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: qsdnn <command> [flags]

commands:
  version    print build and runtime-dispatch info (Go version, GOOS/GOARCH,
             selected GEMM micro-kernel)
  models     list the model zoo
  platforms  list the board presets
  space      show design-space sizes
  profile    run the inference phase and write the look-up table
  search     run the full pipeline (or search a saved LUT) and report
  bench-all  optimize many networks concurrently on a bounded worker
             pool (-net all|name,name -mode cpu|gpgpu|both
             -parallel N -seeds K): the Table II sweep, parallelized
  pbqp       solve with partitioned boolean quadratic programming
  pareto     sweep the latency/energy trade-off (multi-objective)
  plan       search, then emit the deployment plan (+ Chrome trace with -lut FILE)
  analyze    search, then report bottleneck layers, streaming throughput
             and platform-sensitivity sweeps
  export     write a network's architecture as JSON (-lut FILE.json) and
             annotated Graphviz DOT (FILE.dot) after searching it
  serve      run the optimization daemon: POST /v1/optimize accepts
             {network, platform, mode, objective, episodes, samples,
             seed} and returns the optimized plan; GET /v1/jobs/{id}
             polls, GET /v1/jobs/{id}/events streams progress (SSE)

flags: -net NAME -mode cpu|gpgpu -platform NAME -episodes N -samples N -seed N -lut FILE
       -parallel N -seeds K (bench-all)
       -engine -kernel-workers N                profile on the real host-CPU engine
                                                (-mode cpu) with N kernel goroutines
                                                (0 = one per CPU); kernel outputs are
                                                bit-identical at any worker count
       -robust -retries N -sample-timeout DUR   fault-tolerant profiling
       -fault-seed N                            seeded fault injection (testing)
       -manifest DIR                            bench-all: durable run journal; a
                                                re-invoked run skips completed,
                                                checksum-verified jobs
       -checkpoint DIR -resume -checkpoint-every N
                                                search: periodic durable snapshots
                                                with last-good rotation; -resume
                                                continues a killed search
       -addr HOST:PORT -max-inflight N -queue-depth N
       -plan-store DIR -drain-timeout DUR
                                                serve: listen address, concurrency
                                                and queue bounds, durable plan +
                                                checkpoint store, graceful-drain
                                                budget before a checkpointed stop
       -max-deadline DUR                        serve: cap (and default) for per-request
                                                deadline_ms budgets; at the deadline the
                                                best-so-far plan is returned, marked
                                                budget_exhausted
       -brownout                                serve: degraded mode — over-budget or
                                                failing requests get the newest cached
                                                plan of the same family, marked degraded,
                                                with an honest Retry-After
       -breaker-failures N -breaker-cooldown DUR
                                                serve: per-(platform,library) circuit
                                                breakers; trip after N consecutive
                                                profiling failures, probe again after
                                                the cooldown
       -watchdog-stall DUR -watchdog-multiple F serve: cancel jobs whose progress
                                                heartbeat is quiet past max(DUR,
                                                F x learned cadence)
       -canary-interval DUR -drift-band F       serve: plan health — every DUR, canary
                                                re-measurements of a rotating LUT subset;
                                                entries further than F MAD-scaled band
                                                widths from baseline quarantine their
                                                (platform, library) pair
       -plan-ttl N -no-heal                     serve: cached plans older than N profile
                                                epochs serve marked revalidating; -no-heal
                                                disables the background re-optimization of
                                                quarantined plans
       -autotune -tuner-budget N                per-layer kernel autotuning on the real
                                                engine (-engine -mode cpu): block sizes,
                                                micro-kernel, panel width, worker count;
                                                a surrogate cost model shortlists N real
                                                measurements per (layer, primitive) and
                                                winners join the LUT as extra candidates
       -tuner-cache FILE                        durable tuned-variant cache: written after
                                                -autotune, reused when it matches, fed into
                                                matching tables by profile/search/serve;
                                                "qsdnn version -tuner-cache FILE" prints it
SIGINT/SIGTERM interrupt cleanly: a running bench-all flushes its partial results;
a running serve drains, checkpoints what cannot finish, and resumes on restart.`)
}

func parseMode(s string) (primitives.Mode, error) {
	switch s {
	case "cpu":
		return primitives.ModeCPU, nil
	case "gpgpu":
		return primitives.ModeGPGPU, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want cpu or gpgpu)", s)
}

// run is the legacy entry point: background context, no fault or
// durability flags.
func run(cmd, netName, modeStr string, episodes, samples int, seed int64, lutFile, platName string, parallel, seeds int) error {
	return runCtx(context.Background(), cmd, netName, modeStr, episodes, samples, seed, lutFile, platName, parallel, seeds, faultFlags{}, durableFlags{}, engineFlags{}, serveFlags{})
}

// serveCmd runs the optimization-as-a-service daemon: an HTTP JSON API
// that admits (network, platform, objective, budget) requests onto a
// bounded queue, coalesces identical concurrent work, streams search
// progress, and persists plans and checkpoints durably. SIGINT/SIGTERM
// drain gracefully: admission stops, in-flight searches finish (or,
// past -drain-timeout, checkpoint and stop so a restart on the same
// -plan-store resumes them to byte-identical results).
func serveCmd(ctx context.Context, sf serveFlags, ft faultFlags, df durableFlags) error {
	ln, err := net.Listen("tcp", sf.addr)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		MaxInflight:   sf.maxInflight,
		QueueDepth:    sf.queueDepth,
		PlanStore:     sf.planStore,
		SnapshotEvery: df.every,
		Robust:        ft.policy(),
		Faults:        ft.faults(),
		MaxDeadline:   sf.maxDeadline,
		Brownout:      sf.brownout,
		TunerCache:    sf.tunerCache,
		WatchdogStall: sf.watchdogStall,
		WatchdogMult:  sf.watchdogMult,
		Health: &health.Config{
			Interval: sf.canaryInterval,
			Band:     sf.driftBand,
			PlanTTL:  sf.planTTL,
			NoHeal:   sf.noHeal,
		},
	}
	if sf.breakerFailures > 0 {
		cfg.Breaker = &resilience.BreakerConfig{
			FailureThreshold: sf.breakerFailures,
			Cooldown:         sf.breakerCooldown,
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	if st := srv.Status(); st.Resumed > 0 || st.SkippedRec > 0 {
		fmt.Fprintf(os.Stderr, "qsdnn serve: resuming %d interrupted job(s), %d unreadable record(s) skipped\n",
			st.Resumed, st.SkippedRec)
	}
	// Hardened server timeouts: a client that trickles headers or bodies
	// byte-by-byte (Slowloris) is cut off instead of pinning a
	// connection forever. Long-lived responses — SSE streams and
	// wait-mode POSTs — clear their own write deadline per-connection
	// via http.NewResponseController inside the handlers, so WriteTimeout
	// here only bounds ordinary request/response exchanges.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	// The listen line goes to stdout so scripted callers (and the
	// chaos tests) can parse the bound address under -addr :0.
	fmt.Printf("qsdnn serve listening on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		srv.Drain(0)
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "qsdnn serve: draining (budget %s)\n", sf.drainTimeout)
	srv.Drain(sf.drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(sctx)
	return nil
}

// searchDurable runs (or resumes) a search with periodic durable
// snapshots in df.checkpoint: every df.every episodes the agent state
// and best-so-far are written atomically with last-good/previous
// rotation. With df.resume, the newest valid snapshot continues the
// run — a snapshot that fails its CRC or schema validation falls back
// to the previous rotation (with a warning on stderr), and only when
// no valid snapshot exists does the resume error out.
func searchDurable(tab *lut.Table, cfg core.Config, df durableFlags) (*core.Result, error) {
	if err := os.MkdirAll(df.checkpoint, 0o755); err != nil {
		return nil, err
	}
	ckPath := filepath.Join(df.checkpoint, "checkpoint.qsd")
	var from *core.Snapshot
	if df.resume {
		payload, gen, warn, err := store.LoadRotating(ckPath, func(p []byte) error {
			_, verr := core.LoadSnapshot(p, tab)
			return verr
		})
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		if warn != nil {
			fmt.Fprintf(os.Stderr, "qsdnn: warning: current snapshot invalid (%v); resuming from %s rotation\n", warn, gen)
		}
		from, err = core.LoadSnapshot(payload, tab)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "qsdnn: resuming from episode %d/%d\n", from.Checkpoint.Episode, max(cfg.Episodes, 1))
	}
	return core.SearchCheckpointedPlanned(searchplan.Compile(tab), cfg, core.DurableOptions{
		Every: df.every,
		From:  from,
		Save: func(s *core.Snapshot) error {
			payload, err := s.Marshal()
			if err != nil {
				return err
			}
			return store.SaveRotating(ckPath, payload)
		},
	})
}

// profileTable runs the inference phase for one network under the
// fault flags, printing the degradation report when anything fired.
// With ef.real it measures on the actual host-CPU engine (kernels run
// with -kernel-workers goroutines) instead of the platform simulator.
func profileTable(ctx context.Context, ft faultFlags, ef engineFlags, net *qsdnn.Network, board *platform.Platform, mode primitives.Mode, samples int) (*lut.Table, error) {
	if tunerCfg.enabled() {
		// Twins must exist before the table is built so tuned ids fit
		// the candidate bounds.
		primitives.EnableTunedVariants()
	}
	var src profile.Source
	var es *engine.Source
	if ef.real {
		if mode != primitives.ModeCPU {
			return nil, fmt.Errorf("-engine measures on the host CPU, which cannot run GPU primitives; use -mode cpu")
		}
		eng := engine.New(net, ef.seed, 0, engine.Parallelism(ef.kernelWorkers()))
		in := tensor.New(net.InputShape, tensor.NCHW)
		in.FillRandom(rand.New(rand.NewSource(ef.seed)), 1)
		var err error
		es, err = engine.NewSource(eng, in)
		if err != nil {
			return nil, err
		}
		src = es
	} else {
		src = profile.NewSimSource(net, board)
	}
	tab, err := profileSource(ctx, ft, net, src, mode, samples)
	if err != nil {
		return nil, err
	}
	if tunerCfg.enabled() {
		if err := applyTuning(ctx, ft, net, tab, es, ef.seed); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// profileSource runs the inference phase over one measurement source
// under the fault flags: the -fault-seed schedule wraps the source and
// the -robust policy measures it. It prints the degradation report
// when anything fired.
func profileSource(ctx context.Context, ft faultFlags, net *qsdnn.Network, src profile.Source, mode primitives.Mode, samples int) (*lut.Table, error) {
	fsrc := profile.AsFallible(src)
	if f := ft.faults(); f != nil {
		fsrc = profile.NewFaultSource(src, *f)
	}
	tab, rep, err := profile.RunFallible(ctx, net, fsrc, profile.Options{
		Mode: mode, Samples: samples, Robust: ft.policy(),
	})
	if err != nil {
		return nil, err
	}
	if rep != nil && (rep.Flaky() || rep.Degraded()) {
		fmt.Print(rep.Render())
	}
	return tab, nil
}

// paretoTables profiles the latency and the energy table that
// `qsdnn pareto` sweeps, both on the board simulator under the same
// fault flags.
func paretoTables(ctx context.Context, ft faultFlags, net *qsdnn.Network, board *platform.Platform, mode primitives.Mode, samples int) (tt, et *lut.Table, err error) {
	if tt, err = profileSource(ctx, ft, net, profile.NewSimSource(net, board), mode, samples); err != nil {
		return nil, nil, err
	}
	if et, err = profileSource(ctx, ft, net, profile.NewSimEnergySource(net, board), mode, samples); err != nil {
		return nil, nil, err
	}
	return tt, et, nil
}

func runCtx(ctx context.Context, cmd, netName, modeStr string, episodes, samples int, seed int64, lutFile, platName string, parallel, seeds int, ft faultFlags, df durableFlags, ef engineFlags, sf serveFlags) error {
	board, ok := platform.Preset(platName)
	if !ok {
		return fmt.Errorf("unknown platform %q", platName)
	}
	switch cmd {
	case "version":
		fmt.Printf("qsdnn (QS-DNN reproduction) %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
		fmt.Printf("gemm kernel: %s (variants: %s)\n", gemm.ActiveKernel(), strings.Join(gemm.KernelVariants(), ", "))
		tunerVersionInfo()
		return nil
	case "serve":
		return serveCmd(ctx, sf, ft, df)
	case "bench-all":
		var modes []primitives.Mode
		if modeStr == "both" {
			modes = []primitives.Mode{primitives.ModeCPU, primitives.ModeGPGPU}
		} else {
			mode, err := parseMode(modeStr)
			if err != nil {
				return err
			}
			modes = []primitives.Mode{mode}
		}
		nets := strings.Split(netName, ",")
		if netName == "all" || netName == "" {
			nets = models.All()
		}
		var jobs []qsdnn.BatchJob
		for _, n := range nets {
			for _, m := range modes {
				jobs = append(jobs, qsdnn.BatchJob{Network: strings.TrimSpace(n), Mode: m})
			}
		}
		batch, err := qsdnn.OptimizeBatchContext(ctx, jobs, qsdnn.BatchOptions{
			Options:     qsdnn.Options{Episodes: episodes, Samples: samples, Seed: seed},
			Workers:     parallel,
			BestOf:      seeds,
			Platform:    board,
			Robust:      ft.policy(),
			Faults:      ft.faults(),
			ManifestDir: df.manifest,
		})
		if err != nil {
			return err
		}
		if df.manifest != "" {
			// Resume bookkeeping goes to stderr so the summary on
			// stdout stays byte-identical to an uninterrupted run.
			fmt.Fprintf(os.Stderr, "manifest %s: %d jobs restored, %d run\n",
				df.manifest, batch.Restored, len(jobs)*max(seeds, 1)-batch.Restored)
		}
		fmt.Print(batch.Summary())
		fmt.Println()
		fmt.Print(batch.TimingSummary())
		if batch.Canceled {
			return fmt.Errorf("interrupted: %w", context.Cause(ctx))
		}
		return nil
	case "models":
		for _, name := range models.All() {
			net := models.MustBuild(name)
			fmt.Printf("%-14s %4d layers  %8.1f MFLOPs  %7.2fM params\n",
				name, net.Len()-1, float64(net.TotalFLOPs())/1e6, float64(net.TotalWeights())/1e6)
		}
		return nil

	case "platforms":
		names := make([]string, 0, len(platform.Presets()))
		for n := range platform.Presets() {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			p, _ := platform.Preset(n)
			fmt.Printf("%-12s CPU %5.0f GFLOPs  GPU %5.0f GFLOPs  transfer %4.1f GB/s + %3.0f us\n",
				n, p.CPUPeakGFLOPS, p.GPUPeakGFLOPS, p.TransferGBps, p.TransferFixedSec*1e6)
		}
		return nil

	case "pbqp":
		mode, err := parseMode(modeStr)
		if err != nil {
			return err
		}
		net, err := models.Build(netName)
		if err != nil {
			return err
		}
		tab, err := profileTable(ctx, ft, ef, net, board, mode, samples)
		if err != nil {
			return err
		}
		pb := core.PBQP(tab)
		rl := core.Search(tab, core.Config{Episodes: episodes, Seed: seed})
		fmt.Printf("%s (%s, %s)\n  PBQP   : %10.3f ms\n  QS-DNN : %10.3f ms\n",
			netName, mode, platName, pb.Time*1e3, rl.Time*1e3)
		return nil

	case "plan":
		mode, err := parseMode(modeStr)
		if err != nil {
			return err
		}
		net, err := models.Build(netName)
		if err != nil {
			return err
		}
		tab, err := profileTable(ctx, ft, ef, net, board, mode, samples)
		if err != nil {
			return err
		}
		res := core.Search(tab, core.Config{Episodes: episodes, Seed: seed})
		p, err := plan.Build(net, tab, res.Assignment)
		if err != nil {
			return err
		}
		fmt.Print(p.Render())
		fmt.Printf("\n%d transfers, %d conversions, %.3f ms total\n",
			p.Transfers(), p.Conversions(), p.TotalSeconds*1e3)
		if lutFile != "" {
			trace, err := p.ChromeTrace()
			if err != nil {
				return err
			}
			if err := store.WriteFileAtomic(lutFile, trace, 0o644); err != nil {
				return err
			}
			fmt.Printf("chrome trace written to %s\n", lutFile)
		}
		return nil

	case "export":
		mode, err := parseMode(modeStr)
		if err != nil {
			return err
		}
		net, err := models.Build(netName)
		if err != nil {
			return err
		}
		tab, err := profileTable(ctx, ft, ef, net, board, mode, samples)
		if err != nil {
			return err
		}
		res := core.Search(tab, core.Config{Episodes: episodes, Seed: seed})
		if lutFile == "" {
			lutFile = netName + ".json"
		}
		arch, err := json.MarshalIndent(net, "", " ")
		if err != nil {
			return err
		}
		if err := store.WriteFileAtomic(lutFile, arch, 0o644); err != nil {
			return err
		}
		dot := net.ToDot(func(i int) string {
			if i == 0 {
				return ""
			}
			p := primitives.ByID(res.Assignment[i])
			return fmt.Sprintf("%s (%s, %.3fms)", p.Name, p.Proc, tab.Time(i, p.Idx)*1e3)
		})
		dotFile := strings.TrimSuffix(lutFile, ".json") + ".dot"
		if err := store.WriteFileAtomic(dotFile, []byte(dot), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (architecture JSON) and %s (annotated Graphviz)\n", lutFile, dotFile)
		return nil

	case "analyze":
		mode, err := parseMode(modeStr)
		if err != nil {
			return err
		}
		net, err := models.Build(netName)
		if err != nil {
			return err
		}
		tab, err := profileTable(ctx, ft, ef, net, board, mode, samples)
		if err != nil {
			return err
		}
		res := core.Search(tab, core.Config{Episodes: episodes, Seed: seed})
		fmt.Printf("%s on %s (%s): optimized %.3f ms\n\n", netName, platName, mode, res.Time*1e3)

		reports, err := analysis.Bottlenecks(net, tab, res.Assignment)
		if err != nil {
			return err
		}
		fmt.Print(analysis.RenderBottlenecks(reports, 8))

		p, err := plan.Build(net, tab, res.Assignment)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(plan.Analyze(p).Render())

		if mode == primitives.ModeGPGPU {
			fmt.Println()
			points, err := analysis.Sensitivity(net, board, analysis.TransferCost, nil, episodes, seed)
			if err != nil {
				return err
			}
			fmt.Print(analysis.RenderSensitivity(analysis.TransferCost, points))
		}
		return nil

	case "pareto":
		mode, err := parseMode(modeStr)
		if err != nil {
			return err
		}
		net, err := models.Build(netName)
		if err != nil {
			return err
		}
		tt, et, err := paretoTables(ctx, ft, net, board, mode, samples)
		if err != nil {
			return err
		}
		front, err := core.ParetoFront(tt, et, nil, core.Config{Episodes: episodes, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("latency/energy Pareto front for %s on %s:\n", netName, platName)
		for _, p := range front {
			fmt.Printf("  %10.3f ms  %10.3f mJ   (lambda %g)\n", p.Seconds*1e3, p.Joules*1e3, p.Lambda)
		}
		return nil

	case "space":
		net, err := models.Build(netName)
		if err != nil {
			return err
		}
		for _, mode := range []primitives.Mode{primitives.ModeCPU, primitives.ModeGPGPU} {
			fmt.Printf("%s %-6s design space: %.3g configurations (max %d variants/layer)\n",
				netName, mode, primitives.SpaceSize(net, mode), primitives.MaxCandidates(net, mode))
		}
		return nil

	case "profile":
		mode, err := parseMode(modeStr)
		if err != nil {
			return err
		}
		net, err := models.Build(netName)
		if err != nil {
			return err
		}
		tab, err := profileTable(ctx, ft, ef, net, board, mode, samples)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(tab, "", " ")
		if err != nil {
			return err
		}
		if lutFile == "" {
			lutFile = netName + "-" + modeStr + ".lut.json"
		}
		if err := store.WriteFileAtomic(lutFile, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("profiled %s (%s): %d layers, %d edges -> %s (%d bytes)\n",
			netName, mode, tab.NumLayers()-1, len(tab.Edges()), lutFile, len(data))
		return nil

	case "search":
		mode, err := parseMode(modeStr)
		if err != nil {
			return err
		}
		net, err := models.Build(netName)
		if err != nil {
			return err
		}
		var tab *lut.Table
		if lutFile != "" {
			data, err := os.ReadFile(lutFile)
			if err != nil {
				return err
			}
			tab, err = lut.Load(data, net)
			if err != nil {
				return err
			}
		} else {
			tab, err = profileTable(ctx, ft, ef, net, board, mode, samples)
			if err != nil {
				return err
			}
		}
		var rep *qsdnn.Report
		if df.checkpoint != "" {
			res, err := searchDurable(tab, core.Config{Episodes: episodes, Seed: seed}, df)
			if err != nil {
				return err
			}
			rep, err = qsdnn.ReportForResult(net, tab, res)
			if err != nil {
				return err
			}
		} else {
			rep, err = qsdnn.OptimizeTable(net, tab, qsdnn.Options{
				Mode: mode, Episodes: episodes, Samples: samples, Seed: seed,
			})
			if err != nil {
				return err
			}
		}
		fmt.Print(rep.Summary())
		sp := searchplan.Compile(tab)
		fmt.Printf("  random search    : %10.3f ms (same budget)\n",
			core.RandomSearchPlanned(sp, episodes, seed).Time*1e3)
		fmt.Printf("  greedy per layer : %10.3f ms\n", core.GreedyPlanned(sp).Time*1e3)
		fmt.Println("\nlibrary mix:")
		mix := rep.LibraryMix()
		libs := make([]string, 0, len(mix))
		for lib := range mix {
			libs = append(libs, lib)
		}
		sort.Strings(libs)
		for _, lib := range libs {
			fmt.Printf("  %-10s %3d layers\n", lib, mix[lib])
		}
		fmt.Println("\nper-layer selection:")
		for _, c := range rep.Choices {
			fmt.Printf("  %-28s %-14s -> %-22s (%s, %.4f ms)\n",
				c.Layer, c.Kind, c.Primitive, c.Processor, c.Seconds*1e3)
		}
		return nil
	}
	usage()
	return fmt.Errorf("unknown command %q", cmd)
}
