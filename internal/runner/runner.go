// Package runner is the concurrent search orchestrator: it fans a
// batch of (network, mode, seed) search jobs across a bounded worker
// pool, shares profiled look-up tables through a keyed single-flight
// cache (each distinct (network, mode, samples) combination is
// profiled exactly once, even when many workers request it at the same
// instant), and aggregates per-job results deterministically — the
// output depends only on the jobs and their seeds, never on worker
// count or completion order.
//
// The search itself (core.SearchPlanned) is a pure function of (plan,
// config), and the table and its compiled plan are read-only after
// profiling, so arbitrarily many searches may share one plan
// concurrently; the runner exploits both.
//
// Fault tolerance: a failing profiling run fails only the jobs that
// depend on its table (and is evicted from the cache so a later batch
// or retry can succeed); a canceled context stops workers from
// claiming further units while letting in-flight searches finish, so
// the batch returns whatever partial results exist.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/store"
)

// Job is one network to optimize: the search runs once per seed and
// the best result wins (best-of-N protocol).
type Job struct {
	// Network is the zoo model name.
	Network string
	// Mode is the processor mode to profile and search under.
	Mode primitives.Mode
	// Seeds are the search seeds to try; empty selects {1}.
	Seeds []int64
	// Episodes is the per-seed episode budget (default 1000).
	Episodes int
	// Samples is the profiling average count (default 50).
	Samples int
	// Search optionally overrides the full agent configuration; its
	// Episodes and Seed fields are set per seed from the job.
	Search core.Config
}

// unit is one (job index, seed index) work item of a batch.
type unit struct{ job, seed int }

// withDefaults fills unset job fields.
func (j Job) withDefaults() Job {
	if len(j.Seeds) == 0 {
		j.Seeds = []int64{1}
	}
	if j.Episodes == 0 {
		j.Episodes = 1000
	}
	if j.Samples == 0 {
		j.Samples = 50
	}
	return j
}

// ProfileFunc builds the look-up table for one (network, mode,
// samples) combination. The runner wraps it in the single-flight
// cache, so it is called at most once per distinct combination per
// batch (failed builds are evicted and may be retried by a later
// request). It must honor ctx: a canceled context should abort the
// build promptly with ctx.Err(). The returned Report may be nil when
// the implementation has nothing to report (e.g. tables loaded from
// disk).
type ProfileFunc func(ctx context.Context, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error)

// Options configures a batch run.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects one per CPU. The
	// effective count is clamped to GOMAXPROCS (units are pure compute,
	// so extra goroutines only add scheduling overhead); at one
	// effective worker the batch runs fully sequentially: the pool runs
	// inline and no table-cache lookup parks.
	Workers int
	// Platform is the board model profiled against when Profile is
	// nil; nil selects the TX2-like preset.
	Platform *platform.Platform
	// Profile overrides the profiling step (e.g. to load saved tables
	// or drive the real engine). nil profiles on the Platform
	// simulator.
	Profile ProfileFunc
	// Robust selects the fault-tolerant measurement policy for the
	// default simulator profiler (retry, per-sample timeout, robust
	// aggregation, graceful degradation). nil keeps the strict legacy
	// path unless Faults is set, in which case profile.DefaultRobust()
	// applies. Ignored when Profile is non-nil.
	Robust *profile.Robust
	// Faults, when non-nil, wraps the default simulator source in a
	// seeded fault injector — the test harness for the robustness
	// machinery. Ignored when Profile is non-nil.
	Faults *profile.FaultConfig
	// UnitTimeout, when > 0, caps each unit's wall-clock (profiling
	// wait plus search) with a per-unit context deadline derived at
	// unit start. A unit that exceeds it fails with an error wrapping
	// context.DeadlineExceeded; the rest of the batch proceeds. 0
	// preserves the legacy unbounded behavior.
	UnitTimeout time.Duration
	// Manifest, when non-nil, makes the batch resumable: completed
	// units are journaled (with a digest of the table they were
	// computed from), profiled tables are persisted as checksummed
	// blobs, and a re-invoked batch restores every verifiable unit
	// instead of re-running it. See manifest.go for the verification
	// rules.
	Manifest *store.Manifest
}

// SeedResult is one seed's search outcome within a job.
type SeedResult struct {
	// Seed is the search seed.
	Seed int64
	// Result is the search outcome for this seed; nil if the unit
	// never ran (profiling failed or the batch was canceled first).
	Result *core.Result
	// Elapsed is the wall-clock time of this seed's search (profiling
	// excluded — tables are shared across seeds and jobs).
	Elapsed time.Duration
}

// JobResult aggregates one job: every per-seed result plus the
// comparison quantities of the paper's Table II.
type JobResult struct {
	// Job echoes the (defaulted) input job.
	Job Job
	// Net is the built network.
	Net *nn.Network
	// Table is the shared profiled look-up table; nil if profiling
	// never completed for this job.
	Table *lut.Table
	// Profile is the profiling degradation/fault report for the job's
	// table; nil when the profiler had nothing to report.
	Profile *profile.Report
	// Err is the first error that hit one of this job's units
	// (profiling failure, recovered search panic, or cancellation).
	// A job with Err != nil may still carry partial Seeds results.
	Err error
	// Complete reports that every seed ran to completion.
	Complete bool
	// Seeds holds one result per seed, in the job's seed order.
	// Entries with a nil Result did not run.
	Seeds []SeedResult
	// Best is the fastest per-seed result over the seeds that ran
	// (ties break toward the earlier seed, so aggregation is
	// order-independent); nil if no seed completed.
	Best *core.Result
	// BestSeed is the seed that produced Best.
	BestSeed int64
	// VanillaSeconds is the all-Vanilla baseline time.
	VanillaSeconds float64
	// BSLSeconds is the Best-Single-Library time.
	BSLSeconds float64
	// BSLLibrary is the library achieving BSLSeconds.
	BSLLibrary primitives.Library
	// Elapsed is the summed search wall-clock across the job's seeds.
	Elapsed time.Duration
}

// SpeedupVsVanilla returns VanillaSeconds / Best.Time.
func (r *JobResult) SpeedupVsVanilla() float64 { return r.VanillaSeconds / r.Best.Time }

// SpeedupVsBSL returns BSLSeconds / Best.Time.
func (r *JobResult) SpeedupVsBSL() float64 { return r.BSLSeconds / r.Best.Time }

// BatchResult is the outcome of a batch run.
type BatchResult struct {
	// Jobs holds one result per input job, in input order.
	Jobs []JobResult
	// Canceled reports that the batch context was done before every
	// unit ran; Jobs then holds whatever completed first.
	Canceled bool
	// Elapsed is the batch wall-clock, profiling included.
	Elapsed time.Duration
	// ProfileHits counts table requests served by the cache;
	// ProfileMisses counts the distinct profiling runs executed.
	ProfileHits, ProfileMisses int
	// Restored counts units skipped because a manifest record verified
	// (always 0 without Options.Manifest).
	Restored int
}

// FailedJobs counts jobs with a non-nil Err.
func (b *BatchResult) FailedJobs() int {
	n := 0
	for i := range b.Jobs {
		if b.Jobs[i].Err != nil {
			n++
		}
	}
	return n
}

// Run executes the batch with a background context and the legacy
// all-or-nothing contract: the first per-job error fails the whole
// call. Callers that want partial results under failure or
// cancellation use RunContext.
func Run(jobs []Job, opts Options) (*BatchResult, error) {
	batch, err := RunContext(context.Background(), jobs, opts)
	if err != nil {
		return nil, err
	}
	for i := range batch.Jobs {
		if jerr := batch.Jobs[i].Err; jerr != nil {
			return nil, jerr
		}
	}
	return batch, nil
}

// RunContext executes the batch under ctx. Jobs are validated up front
// (unknown networks fail the whole batch before any work starts);
// every (job, seed) pair then becomes one unit of work on the pool.
//
// Per-unit failures do not abort the batch: the affected job records
// its first error in JobResult.Err and the rest proceed. Cancellation
// stops further units from starting; completed units survive in the
// returned BatchResult (with Canceled set), so an interrupted batch
// still flushes its partial results.
func RunContext(ctx context.Context, jobs []Job, opts Options) (*BatchResult, error) {
	return runContext(ctx, jobs, opts, newTableCache())
}

// runContext is RunContext over a caller-supplied table cache.
func runContext(ctx context.Context, jobs []Job, opts Options, cache *tableCache) (*BatchResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("runner: empty batch")
	}
	pl := opts.Platform
	if pl == nil {
		pl = platform.JetsonTX2Like()
	}
	profileFn := opts.Profile
	if profileFn == nil {
		profileFn = simProfile(pl, opts.Robust, opts.Faults)
	}

	// Validate and default every job; build each distinct network once.
	defaulted := make([]Job, len(jobs))
	nets := map[string]*nn.Network{}
	for i, j := range jobs {
		j = j.withDefaults()
		if _, ok := nets[j.Network]; !ok {
			net, err := models.Build(j.Network)
			if err != nil {
				return nil, fmt.Errorf("runner: job %d: %w", i, err)
			}
			nets[j.Network] = net
		}
		defaulted[i] = j
	}

	// Flatten to (job, seed) units. Each unit writes only its own
	// slots, so the pool needs no further synchronization.
	var units []unit
	for ji, j := range defaulted {
		for si := range j.Seeds {
			units = append(units, unit{job: ji, seed: si})
		}
	}
	results := make([][]SeedResult, len(defaulted))
	tables := make([][]*lut.Table, len(defaulted))
	reports := make([][]*profile.Report, len(defaulted))
	errs := make([]error, len(units))
	for ji, j := range defaulted {
		results[ji] = make([]SeedResult, len(j.Seeds))
		tables[ji] = make([]*lut.Table, len(j.Seeds))
		reports[ji] = make([]*profile.Report, len(j.Seeds))
	}

	// Manifest restore pass: skip every unit whose journal record and
	// stored table verify, then run only what's left. Without a
	// manifest, pending is all units and the path below is unchanged.
	var ml *manifestLUTs
	skip := make([]bool, len(units))
	restored := 0
	if opts.Manifest != nil {
		ml = newManifestLUTs(opts.Manifest)
		skip, restored = ml.restore(units, defaulted, nets, results, tables)
	}
	pending := make([]int, 0, len(units))
	for u := range units {
		if !skip[u] {
			pending = append(pending, u)
		}
	}

	// Resolve the effective worker count before spinning anything up.
	// Units are pure compute (a search is CPU-bound; profiling is
	// single-flighted), so workers beyond the schedulable parallelism
	// only add scheduler churn and single-flight parking — measured at
	// ~13% of batch wall-clock on a single-core host (EXPERIMENTS.md).
	// Clamping to GOMAXPROCS makes a one-core host take the sequential
	// path no matter what was requested: at one worker the pool runs
	// inline and no cache lookup ever parks.
	workers := opts.Workers
	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	start := time.Now()
	outcome := pool.RunContext(ctx, len(pending), workers, func(k int) {
		u := pending[k]
		ji, si := units[u].job, units[u].seed
		job := defaulted[ji]
		net := nets[job.Network]
		uctx := ctx
		if opts.UnitTimeout > 0 {
			var ucancel context.CancelFunc
			uctx, ucancel = context.WithTimeout(ctx, opts.UnitTimeout)
			defer ucancel()
		}
		key := cacheKey{network: job.Network, mode: job.Mode, samples: job.Samples}
		tab, plan, rep, err := cache.get(key.String(), func() (*lut.Table, *profile.Report, error) {
			// With a manifest, a stored table that verifies is reused
			// (profiling is deterministic, so the result is identical);
			// a fresh build is persisted before any unit records
			// reference its digest.
			if ml != nil {
				if tab, _, lerr := ml.load(key, job, net); lerr == nil {
					return tab, nil, nil
				}
			}
			tab, rep, err := profileFn(uctx, net, job.Mode, job.Samples)
			if err == nil && ml != nil {
				if serr := ml.save(key, job, tab); serr != nil {
					return nil, nil, fmt.Errorf("persisting LUT: %w", serr)
				}
			}
			return tab, rep, err
		})
		if err != nil {
			errs[u] = fmt.Errorf("runner: profiling %s/%s: %w", job.Network, job.Mode, err)
			return
		}
		tables[ji][si] = tab
		reports[ji][si] = rep
		cfg := job.Search
		cfg.Episodes = job.Episodes
		cfg.Seed = job.Seeds[si]
		t0 := time.Now()
		res := core.SearchPlanned(plan, cfg)
		results[ji][si] = SeedResult{Seed: job.Seeds[si], Result: res, Elapsed: time.Since(t0)}
		if ml != nil {
			// Journal the completed unit durably; a failed append is a
			// broken durability promise and fails the unit loudly.
			if merr := ml.record(job, job.Seeds[si], res, key); merr != nil {
				errs[u] = fmt.Errorf("runner: journaling %s/%s: %w", job.Network, job.Mode, merr)
			}
		}
	})
	// A recovered search panic fails its unit like any other error —
	// the message carries the captured stack for the report.
	for _, pe := range outcome.Panics {
		if u := pending[pe.Index]; errs[u] == nil {
			errs[u] = fmt.Errorf("runner: %w\n%s", pe, pe.Stack)
		}
	}

	// Aggregate in input order: completion order never leaks into the
	// result. Ties between seeds break toward the earlier seed.
	batch := &BatchResult{Jobs: make([]JobResult, len(defaulted)), Canceled: ctx.Err() != nil}
	jobErr := make([]error, len(defaulted))
	for u, un := range units {
		if errs[u] != nil && jobErr[un.job] == nil {
			jobErr[un.job] = errs[u]
		}
	}
	for ji, j := range defaulted {
		jr := JobResult{Job: j, Net: nets[j.Network], Err: jobErr[ji], Seeds: results[ji]}
		ran := 0
		for si, sr := range results[ji] {
			if tables[ji][si] != nil && jr.Table == nil {
				jr.Table = tables[ji][si]
				jr.Profile = reports[ji][si]
			}
			if sr.Result == nil {
				continue
			}
			ran++
			jr.Elapsed += sr.Elapsed
			if jr.Best == nil || sr.Result.Time < jr.Best.Time {
				jr.Best = sr.Result
				jr.BestSeed = j.Seeds[si]
			}
		}
		jr.Complete = jr.Err == nil && ran == len(j.Seeds)
		if !jr.Complete && jr.Err == nil {
			cause := context.Cause(ctx)
			if cause == nil {
				cause = context.Canceled
			}
			jr.Err = fmt.Errorf("runner: %s/%s: canceled after %d/%d seeds: %w",
				j.Network, j.Mode, ran, len(j.Seeds), cause)
		}
		if jr.Table != nil {
			jr.VanillaSeconds = core.VanillaTime(jr.Table)
			lib, bsl := core.BestSingleLibrary(jr.Table)
			jr.BSLLibrary, jr.BSLSeconds = lib, bsl.Time
		}
		batch.Jobs[ji] = jr
	}
	batch.Elapsed = time.Since(start)
	batch.ProfileHits, batch.ProfileMisses = cache.stats()
	batch.Restored = restored
	return batch, nil
}

// simProfile is the default ProfileFunc: profile on the platform
// simulator, optionally through the fault injector and the robust
// measurement policy.
func simProfile(pl *platform.Platform, robust *profile.Robust, faults *profile.FaultConfig) ProfileFunc {
	robust = profile.RobustFor(robust, faults)
	return func(ctx context.Context, net *nn.Network, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		var src profile.Source = profile.NewSimSource(net, pl)
		if faults != nil {
			src = profile.NewFaultSource(src, *faults)
		}
		return profile.RunContext(ctx, net, src, profile.Options{Mode: mode, Samples: samples, Robust: robust})
	}
}
