package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/health"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/resilience"
	"repro/internal/runner"
	"repro/internal/searchplan"
	"repro/internal/tune"
)

// ProfileFunc builds the look-up table for one validated request. The
// server wraps it in the single-flight runner.Flight, so it runs at
// most once per distinct (network, platform, mode, samples)
// combination no matter how many clients ask concurrently. It must
// honor ctx. nil selects the platform simulator.
type ProfileFunc func(ctx context.Context, net *nn.Network, board *platform.Platform, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error)

// Config configures a Server.
type Config struct {
	// MaxInflight is the number of concurrent searches (the worker
	// count); <= 0 selects one per CPU.
	MaxInflight int
	// QueueDepth bounds the admission queue; a request arriving with
	// the queue full is rejected with 429 + Retry-After. <= 0
	// selects 64.
	QueueDepth int
	// PlanStore is the durable state directory (plans + job records +
	// search checkpoints); empty serves from memory only, with no
	// crash resume.
	PlanStore string
	// CacheSize is the warm in-memory plan LRU capacity; <= 0
	// selects 256.
	CacheSize int
	// SnapshotEvery is the search checkpoint cadence in episodes —
	// also the progress-event granularity; <= 0 selects
	// core.DefaultSnapshotEvery.
	SnapshotEvery int
	// RetainJobs bounds how many finished jobs stay pollable at
	// /v1/jobs/{id}; <= 0 selects 1024.
	RetainJobs int
	// Profile overrides the profiling step (tests use it to count
	// invocations and inject gates); nil profiles on the platform
	// simulator.
	Profile ProfileFunc
	// Robust selects the fault-tolerant measurement policy for the
	// default simulator profiler; ignored when Profile is non-nil.
	Robust *profile.Robust
	// Faults, when non-nil, wraps the default simulator source in the
	// seeded fault injector — the test/chaos harness for the
	// resilience machinery. Ignored when Profile is non-nil.
	Faults *profile.FaultConfig
	// MaxDeadline caps the per-request deadline_ms budget and, when
	// set, also applies as the default budget for requests that send
	// none. 0 leaves client budgets uncapped and deadline-less
	// requests unbounded (the legacy behavior).
	MaxDeadline time.Duration
	// Brownout enables degraded serving: when a job cannot be
	// completed in budget (queue delay, open breakers, profiling
	// failure), the newest cached plan of the request's family is
	// served with degraded=true and an honest Retry-After, instead of
	// an error.
	Brownout bool
	// Breaker, when non-nil, installs per-(platform, library) circuit
	// breakers around the default simulator profiler. A nil Exempt
	// list defaults to the Vanilla library — the degradation floor
	// must stay measurable. Ignored when Profile is non-nil.
	Breaker *resilience.BreakerConfig
	// WatchdogStall, when > 0, arms the stuck-work watchdog: a job
	// whose progress heartbeat (profiled measurements, checkpoint
	// boundaries) goes quiet for more than
	// max(WatchdogStall, WatchdogMult x learned cadence) is canceled.
	WatchdogStall time.Duration
	// WatchdogMult is the learned-cadence multiple for the watchdog
	// limit; <= 0 selects 8.
	WatchdogMult float64
	// Health configures the plan-health subsystem: canary re-profiling
	// cadence, drift band, plan TTL, and self-healing. nil installs the
	// defaults with no background canary loop (ticks can still be
	// driven explicitly via CanaryTick).
	Health *health.Config
	// TunerCache, when set, loads a kernel-autotuner cache file
	// (written by `qsdnn profile -engine -autotune -tuner-cache`) at
	// startup and writes its tuned times onto the base primitives'
	// entries of every profiled table whose network and mode match, so
	// searches price the tuned kernels. An unreadable or corrupt cache is
	// reported in /statusz and ignored — the server starts and serves
	// defaults.
	TunerCache string
}

// errStopped aborts a search at a checkpoint boundary during a hard
// stop: the snapshot is already durable, so the job resumes on the
// next start.
var errStopped = errors.New("serve: hard stop at checkpoint boundary")

// errAbandoned cancels a job every waiting client has walked away
// from: with no waiter and no durable-record obligation, nobody will
// ever read the result.
var errAbandoned = errors.New("serve: all waiting clients disconnected")

// Server is the optimization daemon. Create with New, mount
// Handler(), and stop with Drain.
type Server struct {
	cfg    Config
	every  int
	retain int

	profileFn ProfileFunc // nil selects the simulator pipeline in profileJob
	flight    *runner.Flight
	lru       *lruCache
	store     *planStore // nil without Config.PlanStore
	breakers  *resilience.BreakerSet
	watchdog  *resilience.Watchdog

	// Plan health. hcfg is never nil (defaults when Config.Health is
	// nil); monitor is the drift/quarantine state machine. lutMu guards
	// the LUT registrations, the plan index (lutKey -> plan keys), and
	// the outstanding-heal bookkeeping; it is a leaf lock under s.mu —
	// never acquire s.mu while holding it.
	hcfg       *health.Config
	monitor    *health.Monitor
	canaryStop chan struct{}

	lutMu       sync.Mutex
	luts        map[string]*lutInfo
	planIndex   map[string][]string
	healPending map[string]int
	healRolled  map[string]bool

	// faultSrcs shares one fault injector per profiling key so injected
	// drift persists across re-profiles; driftRound is the round new
	// sources start at.
	faultMu    sync.Mutex
	faultSrcs  map[string]*profile.FaultSource
	driftRound int64

	// planMetas records each cached plan's health lineage (epoch,
	// parent, fingerprints); planMu is a leaf lock.
	planMu    sync.Mutex
	planMetas map[string]planMeta

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// family maps a brownout family key to the newest full-plan
	// request key cached for it.
	famMu  sync.Mutex
	family map[string]string

	// svcNanos is an EWMA of recent per-job service time (ns), feeding
	// the Retry-After estimator. 0 until the first job completes.
	svcNanos atomic.Int64

	mu        sync.Mutex
	draining  bool
	queue     chan *job
	resumedQ  []*job
	jobs      map[string]*job
	byKey     map[string]*job
	doneOrder []string
	nextID    int64

	queuedN         atomic.Int64
	inflight        atomic.Int64
	accepted        atomic.Int64
	rejected        atomic.Int64
	coalesced       atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	interrupted     atomic.Int64
	canceled        atomic.Int64
	watchdogFired   atomic.Int64
	degradedServed  atomic.Int64
	budgetExhausted atomic.Int64
	resumed         atomic.Int64
	skippedRec      atomic.Int64
	searches        atomic.Int64
	planHits        atomic.Int64
	storeHits       atomic.Int64
	planMisses      atomic.Int64

	// tuner is the loaded autotuner cache (nil when Config.TunerCache
	// is empty or the file was rejected); tunerErr records why a
	// configured cache did not load.
	tuner        *tune.Cache
	tunerErr     string
	tunerApplied atomic.Int64
	tunerSkipped atomic.Int64

	canaryRounds    atomic.Int64
	canaryMeasured  atomic.Int64
	driftedEntries  atomic.Int64
	quarantines     atomic.Int64
	healsEnqueued   atomic.Int64
	healsDeferred   atomic.Int64
	healedPairs     atomic.Int64
	healedN         atomic.Int64
	rolledBackN     atomic.Int64
	revalServed     atomic.Int64
	lutEvicted      atomic.Int64
	degradedEvicted atomic.Int64
}

// defaultProfile profiles on the platform simulator under the strict
// protocol.
func defaultProfile(ctx context.Context, net *nn.Network, board *platform.Platform, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
	return profile.RunContext(ctx, net, profile.NewSimSource(net, board), profile.Options{Mode: mode, Samples: samples})
}

// New builds a Server, reopens its durable store, re-admits every job
// record a previous process left behind (crash or hard-stop resume),
// and starts the worker set.
func New(cfg Config) (*Server, error) {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	every := cfg.SnapshotEvery
	if every <= 0 {
		every = core.DefaultSnapshotEvery
	}
	retain := cfg.RetainJobs
	if retain <= 0 {
		retain = 1024
	}
	hcfg := cfg.Health
	if hcfg == nil {
		hcfg = &health.Config{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		every:       every,
		retain:      retain,
		profileFn:   cfg.Profile,
		flight:      runner.NewFlight(),
		lru:         newLRU(cfg.CacheSize),
		baseCtx:     ctx,
		cancel:      cancel,
		queue:       make(chan *job, cfg.QueueDepth),
		jobs:        map[string]*job{},
		byKey:       map[string]*job{},
		family:      map[string]string{},
		hcfg:        hcfg,
		monitor:     health.NewMonitor(hcfg.ConfirmCount()),
		canaryStop:  make(chan struct{}),
		luts:        map[string]*lutInfo{},
		planIndex:   map[string][]string{},
		healPending: map[string]int{},
		healRolled:  map[string]bool{},
		faultSrcs:   map[string]*profile.FaultSource{},
		planMetas:   map[string]planMeta{},
	}
	if cfg.TunerCache != "" {
		if c, err := tune.LoadCache(cfg.TunerCache); err != nil {
			s.tunerErr = err.Error()
		} else {
			s.tuner = c
		}
	}
	if cfg.Breaker != nil {
		bcfg := *cfg.Breaker
		if bcfg.Exempt == nil {
			// Vanilla is the degradation floor: RunContext can drop any
			// other library's candidates, but an unmeasurable Vanilla
			// fails the whole table, so its breaker never trips.
			bcfg.Exempt = []string{primitives.Vanilla.String()}
		}
		s.breakers = resilience.NewBreakerSet(&bcfg)
	}
	if cfg.WatchdogStall > 0 {
		s.watchdog = resilience.NewWatchdog(cfg.WatchdogStall, cfg.WatchdogMult)
		s.watchdog.Start()
	}
	if cfg.PlanStore != "" {
		st, err := openPlanStore(cfg.PlanStore)
		if err != nil {
			cancel()
			s.stopWatchdog()
			return nil, err
		}
		s.store = st
		reqs, skipped, err := st.pendingJobs()
		if err != nil {
			cancel()
			s.stopWatchdog()
			return nil, err
		}
		s.skippedRec.Add(int64(skipped))
		for _, req := range reqs {
			spec, err := req.spec()
			if err != nil {
				s.skippedRec.Add(1)
				continue
			}
			j := newJob(s.newID(), spec)
			j.resumed = true
			// Resumed jobs run without a deadline and regardless of
			// waiters: the durable record is an obligation to finish.
			j.arm(s.baseCtx, 0)
			j.pinned = true
			s.jobs[j.id] = j
			s.byKey[spec.key()] = j
			s.resumedQ = append(s.resumedQ, j)
			s.queuedN.Add(1)
			s.resumed.Add(1)
		}
		// Rebuild the in-memory indexes from the durable plans (oldest
		// first, so the newest plan of each family wins): the brownout
		// family map, and the health plan index + lineage metadata, so
		// quarantine and TTL accounting survive restarts.
		for _, key := range st.planKeys() {
			if cfg.Brownout {
				s.noteFamily(key)
			}
			sp, err := specFromKey(key)
			if err != nil {
				continue
			}
			if _, meta, ok := st.getPlan(key); ok {
				s.notePlan(key, sp, meta)
			}
		}
	}
	for w := 0; w < cfg.MaxInflight; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if hcfg.Interval > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.canaryLoop(hcfg.Interval)
		}()
	}
	return s, nil
}

// newID mints a job id. Callers either hold s.mu or run before any
// concurrency exists (New).
func (s *Server) newID() string {
	s.nextID++
	return fmt.Sprintf("j-%06d", s.nextID)
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return mux
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeResponse writes resp with the given status code: exactly the
// bytes writeJSON would, but with the plan copied in verbatim. The
// encoder re-compacts and re-escapes a json.RawMessage on every call,
// which for a 21 KB plan cost more than the HTTP round trip of a cache
// hit; plans are normalised once instead, where they enter the cache
// (exec marshals them, planStore.getPlan re-encodes what it loads).
// The reply carries its Content-Length: a reply larger than net/http's
// 2 KB buffer would otherwise go out chunked, and a client that stops
// reading after the JSON value (json.Decoder does, before the trailing
// newline) could then not reuse its connection.
func writeResponse(w http.ResponseWriter, code int, resp OptimizeResponse) {
	plan := resp.Plan
	if len(plan) > 0 {
		resp.Plan = planMark
	}
	env, err := json.Marshal(resp)
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(code)
		return // the encoder writes no body on error either
	}
	out := env
	if len(plan) > 0 {
		at := bytes.Index(env, planField) + len(planField) - len(planMark)
		out = make([]byte, 0, len(env)+len(plan)+1)
		out = append(out, env[:at]...)
		out = append(out, plan...)
		out = append(out, env[at+len(planMark):]...)
	}
	out = append(out, '\n')
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(code)
	w.Write(out)
}

// planMark holds the plan's place while writeResponse marshals the
// envelope. planField occurs exactly once in the result: no other key
// of the envelope is "plan", and inside an encoded string its quotes
// would be escaped.
var (
	planMark  = json.RawMessage("0")
	planField = []byte(`"plan":0`)
)

// errorJSON is the uniform error reply body.
type errorJSON struct {
	Error string `json:"error"`
}

// handleOptimize is the admission path: validate (400), serve from the
// plan cache/store when the identical request was already optimized,
// coalesce onto an identical in-flight job, or admit onto the bounded
// queue — rejecting with 429 + Retry-After when it is full and 503
// while draining.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	req, spec, err := decodeOptimizeRequest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	key := spec.key()
	if payload, ok := s.lookupPlan(key); ok {
		writeResponse(w, http.StatusOK, s.cachedResponse(spec, key, payload))
		return
	}
	// The effective deadline budget: the client's, capped by the
	// server's -max-deadline, which also applies when the client sent
	// none.
	budget := spec.Deadline
	if s.cfg.MaxDeadline > 0 && (budget == 0 || budget > s.cfg.MaxDeadline) {
		budget = s.cfg.MaxDeadline
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "server is draining"})
		return
	}
	if j := s.byKey[key]; j != nil {
		s.coalesced.Add(1)
		if req.Wait {
			j.addWaiter()
		}
		s.mu.Unlock()
		s.respondJob(w, r, j, req.Wait, http.StatusOK, budget)
		return
	}
	// Second cache check under the lock: a job for this key may have
	// finished between the lock-free lookup above and here (it caches
	// its plan before releasing its coalescing slot, so holding s.mu
	// with byKey empty means any such plan is already visible) —
	// without this, the race would admit a duplicate search.
	if payload, ok := s.lookupPlan(key); ok {
		s.mu.Unlock()
		writeResponse(w, http.StatusOK, s.cachedResponse(spec, key, payload))
		return
	}
	// Load shedding under a budget: when the queue alone is expected
	// to eat the whole budget, admitting the job would only burn a
	// worker on an answer nobody can wait for — brown out (or refuse
	// honestly) up front.
	if budget > 0 && s.estimatedDelay() > budget {
		s.rejected.Add(1)
		s.mu.Unlock()
		s.brownoutOr503(w, spec, "queue delay exceeds the request deadline budget")
		return
	}
	j := newJob(s.newID(), spec)
	j.arm(s.baseCtx, budget)
	if req.Wait {
		j.addWaiter()
	} else {
		// An async (202) submission has no connected waiter to track;
		// the client polls, so the job must run.
		j.pinned = true
	}
	if s.store != nil {
		// Durable admission: the job record lands before the job is
		// claimable, so a SIGKILL at any later instant cannot lose it —
		// and the record is an obligation to finish even if every
		// waiter disconnects.
		j.pinned = true
		if err := s.store.saveJobRecord(spec, nil); err != nil {
			s.mu.Unlock()
			j.release()
			writeJSON(w, http.StatusInternalServerError, errorJSON{Error: fmt.Sprintf("persisting job record: %v", err)})
			return
		}
	}
	select {
	case s.queue <- j:
	default:
		if s.store != nil {
			s.store.dropJobRecord(key)
		}
		s.rejected.Add(1)
		s.mu.Unlock()
		j.release()
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: "queue full"})
		return
	}
	s.jobs[j.id] = j
	s.byKey[key] = j
	s.accepted.Add(1)
	s.queuedN.Add(1)
	s.mu.Unlock()
	s.respondJob(w, r, j, req.Wait, http.StatusAccepted, budget)
}

// brownoutOr503 answers a request the server cannot serve exactly in
// time: under brownout with a cached family plan available, a degraded
// 200; otherwise an honest 503. Both carry the Retry-After estimate.
func (s *Server) brownoutOr503(w http.ResponseWriter, spec *jobSpec, msg string) {
	w.Header().Set("Retry-After", s.retryAfter())
	if s.cfg.Brownout {
		if payload, ok := s.lookupDegraded(spec); ok {
			s.degradedServed.Add(1)
			writeResponse(w, http.StatusOK, OptimizeResponse{State: StateDone, Cached: true, Degraded: true, Plan: payload})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: msg})
}

// budgetGrace is how much longer than its budget a waiting client
// holds on: the job's own deadline fires first, the search stops at
// the next checkpoint boundary, and the best-so-far plan is built —
// all inside the grace — so the client receives the budget-exhausted
// plan instead of racing it.
const budgetGrace = time.Second

// respondJob replies for an admitted (or coalesced-onto) job: a 202
// status envelope, or — with wait — the finished plan inline. Wait
// callers must have registered a waiter (addWaiter) before calling;
// it is dropped here on every exit, and a last waiter walking away
// cancels an unpinned job.
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, j *job, wait bool, code int, budget time.Duration) {
	if !wait {
		writeResponse(w, code, j.status())
		return
	}
	defer j.dropWaiter()
	// A waiting POST is a long poll; exempt it from the http.Server
	// write deadline (same contract as the SSE stream).
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	var timeout <-chan time.Time
	if budget > 0 {
		t := time.NewTimer(budget + budgetGrace)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		return // client gone; dropWaiter decides the job's fate
	case <-timeout:
		// The job overran its budget without even a best-so-far plan
		// (e.g. stuck in profiling past the grace).
		s.brownoutOr503(w, j.spec, "deadline budget exhausted before the job finished")
		return
	}
	st := j.status()
	switch st.State {
	case StateDone:
		if st.Degraded {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		writeResponse(w, http.StatusOK, st)
	case StateInterrupted, StateCanceled:
		w.Header().Set("Retry-After", s.retryAfter())
		writeResponse(w, http.StatusServiceUnavailable, st)
	default:
		writeResponse(w, http.StatusInternalServerError, st)
	}
}

// jobByID looks up a job.
func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "unknown job"})
		return
	}
	writeResponse(w, http.StatusOK, j.status())
}

// handleEvents streams a job's progress as server-sent events: one
// `data:` line per checkpoint-cadence boundary, ending with the
// terminal state event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: "streaming unsupported"})
		return
	}
	// A progress stream outlives any sane write deadline; exempt it
	// (ignoring the error — a recorder or h2 stream may not support
	// deadlines, and then there is nothing to exempt from).
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	sent := 0
	for {
		evs, update, terminal := j.eventsFrom(sent)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
		}
		if len(evs) > 0 {
			fl.Flush()
			sent += len(evs)
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-update:
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Statusz is the GET /statusz body: queue occupancy, job outcomes, and
// every cache layer's effectiveness.
type Statusz struct {
	Draining    bool  `json:"draining"`
	MaxInflight int   `json:"max_inflight"`
	QueueDepth  int   `json:"queue_depth"`
	Inflight    int64 `json:"inflight"`
	Queued      int64 `json:"queued"`

	Accepted    int64 `json:"accepted"`
	Rejected    int64 `json:"rejected"`
	Coalesced   int64 `json:"coalesced"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Interrupted int64 `json:"interrupted"`
	Resumed     int64 `json:"resumed"`
	SkippedRec  int64 `json:"skipped_records"`
	Searches    int64 `json:"searches"`

	// Resilience outcomes: canceled jobs (abandoned / budget /
	// watchdog), watchdog firings, degraded brownout replies, and
	// best-so-far plans returned at budget exhaustion.
	Canceled        int64 `json:"canceled"`
	WatchdogCancels int64 `json:"watchdog_cancels"`
	DegradedServed  int64 `json:"degraded_served"`
	BudgetExhausted int64 `json:"budget_exhausted"`
	// RetryAfterSeconds is the current Retry-After estimate.
	RetryAfterSeconds int `json:"retry_after_seconds"`
	// Breakers is every circuit breaker's state, sorted; absent when
	// breakers are not configured.
	Breakers []resilience.BreakerStatus `json:"breakers,omitempty"`

	// Plan health: the global profile epoch, every non-fresh
	// (platform, library) pair's state, and the canary / quarantine /
	// self-healing counters.
	ProfileEpoch    int64           `json:"profile_epoch"`
	Health          []health.Status `json:"health,omitempty"`
	CanaryRounds    int64           `json:"canary_rounds"`
	CanaryMeasured  int64           `json:"canary_measured"`
	DriftedEntries  int64           `json:"drifted_entries"`
	Quarantines     int64           `json:"quarantines"`
	HealsEnqueued   int64           `json:"heals_enqueued"`
	HealsDeferred   int64           `json:"heals_deferred"`
	Healed          int64           `json:"healed"`
	RolledBack      int64           `json:"rolled_back"`
	RevalServed     int64           `json:"revalidating_served"`
	LUTEvictions    int64           `json:"lut_evictions"`
	DegradedLUTEvic int64           `json:"degraded_lut_evictions"`

	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanStoreHits   int64 `json:"plan_store_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	PlanCacheSize   int   `json:"plan_cache_size"`
	LUTCacheHits    int   `json:"lut_cache_hits"`
	LUTCacheMisses  int   `json:"lut_cache_misses"`

	// GemmKernel is the micro-kernel the runtime CPU dispatch selected
	// for the GEMM-backed engine paths (e.g. "avx2", "go") — recorded
	// so fleet monitoring can spot hosts that silently fell back to
	// the portable kernel.
	GemmKernel string `json:"gemm_kernel"`

	// Tuner reports the kernel-autotuner cache state; omitted when no
	// Config.TunerCache is configured.
	Tuner *TunerStatus `json:"tuner,omitempty"`
}

// TunerStatus is the /statusz view of the autotuner cache.
type TunerStatus struct {
	// CachePath is the configured cache file.
	CachePath string `json:"cache_path"`
	// Loaded reports whether the cache passed the codec checks.
	Loaded bool `json:"loaded"`
	// Error is why a configured cache did not load (corrupt, torn,
	// missing); empty when Loaded.
	Error string `json:"error,omitempty"`
	// Network and Mode identify what the cache tunes.
	Network string `json:"network,omitempty"`
	Mode    string `json:"mode,omitempty"`
	// Entries is the tuned-variant count in the cache.
	Entries int `json:"entries"`
	// Applied and Skipped count per-profile application outcomes since
	// start: candidates fed into tables vs entries rejected (wrong
	// network/mode, stale layer, forged values).
	Applied int64 `json:"applied"`
	Skipped int64 `json:"skipped"`
	// Stats echoes the tuning run's recorded statistics (variants
	// generated/measured, surrogate shortlist hits, best speedup).
	Stats tune.Stats `json:"stats"`
}

// Status snapshots the daemon counters.
func (s *Server) Status() Statusz {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	lh, lm := s.flight.Stats()
	st := Statusz{
		Draining:          draining,
		MaxInflight:       s.cfg.MaxInflight,
		QueueDepth:        s.cfg.QueueDepth,
		Inflight:          s.inflight.Load(),
		Queued:            s.queuedN.Load(),
		Accepted:          s.accepted.Load(),
		Rejected:          s.rejected.Load(),
		Coalesced:         s.coalesced.Load(),
		Completed:         s.completed.Load(),
		Failed:            s.failed.Load(),
		Interrupted:       s.interrupted.Load(),
		Canceled:          s.canceled.Load(),
		WatchdogCancels:   s.watchdogFired.Load(),
		DegradedServed:    s.degradedServed.Load(),
		BudgetExhausted:   s.budgetExhausted.Load(),
		RetryAfterSeconds: s.retryAfterSeconds(),
		Resumed:           s.resumed.Load(),
		SkippedRec:        s.skippedRec.Load(),
		Searches:          s.searches.Load(),
		PlanCacheHits:     s.planHits.Load(),
		PlanStoreHits:     s.storeHits.Load(),
		PlanCacheMisses:   s.planMisses.Load(),
		PlanCacheSize:     s.lru.len(),
		LUTCacheHits:      lh,
		LUTCacheMisses:    lm,
		GemmKernel:        gemm.ActiveKernel(),
		ProfileEpoch:      s.monitor.Epoch(),
		Health:            s.monitor.Snapshot(),
		CanaryRounds:      s.canaryRounds.Load(),
		CanaryMeasured:    s.canaryMeasured.Load(),
		DriftedEntries:    s.driftedEntries.Load(),
		Quarantines:       s.quarantines.Load(),
		HealsEnqueued:     s.healsEnqueued.Load(),
		HealsDeferred:     s.healsDeferred.Load(),
		Healed:            s.healedN.Load(),
		RolledBack:        s.rolledBackN.Load(),
		RevalServed:       s.revalServed.Load(),
		LUTEvictions:      s.lutEvicted.Load(),
		DegradedLUTEvic:   s.degradedEvicted.Load(),
	}
	if s.breakers != nil {
		st.Breakers = s.breakers.Snapshot()
	}
	if s.cfg.TunerCache != "" {
		ts := &TunerStatus{
			CachePath: s.cfg.TunerCache,
			Loaded:    s.tuner != nil,
			Error:     s.tunerErr,
			Applied:   s.tunerApplied.Load(),
			Skipped:   s.tunerSkipped.Load(),
		}
		if s.tuner != nil {
			ts.Network = s.tuner.Network
			ts.Mode = s.tuner.Mode
			ts.Entries = len(s.tuner.Entries)
			ts.Stats = s.tuner.Stats
		}
		st.Tuner = ts
	}
	return st
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// lookupPlan serves a finished plan from the LRU or the durable store.
func (s *Server) lookupPlan(key string) (json.RawMessage, bool) {
	if p, ok := s.lru.get(key); ok {
		s.planHits.Add(1)
		return p, true
	}
	if s.store != nil {
		if p, meta, ok := s.store.getPlan(key); ok {
			s.storeHits.Add(1)
			s.lru.add(key, p)
			if sp, err := specFromKey(key); err == nil {
				s.notePlan(key, sp, meta)
			}
			return p, true
		}
	}
	s.planMisses.Add(1)
	return nil, false
}

// previousPlan fetches the cached plan a heal job is about to replace,
// with its lineage metadata — the rollback check's other input. The
// store is consulted first (its metadata is authoritative across
// restarts), the LRU + in-memory metadata second.
func (s *Server) previousPlan(key string) (json.RawMessage, planMeta, bool) {
	if s.store != nil {
		if p, meta, ok := s.store.getPlan(key); ok {
			return p, meta, true
		}
	}
	if p, ok := s.lru.get(key); ok {
		return p, s.planMetaFor(key), true
	}
	return nil, planMeta{}, false
}

// noteFamily records key as its family's newest full plan.
func (s *Server) noteFamily(key string) {
	s.famMu.Lock()
	s.family[familyOfKey(key)] = key
	s.famMu.Unlock()
}

// lookupDegraded serves the newest cached plan of spec's family — the
// brownout substitute when the exact plan cannot be computed in time.
func (s *Server) lookupDegraded(spec *jobSpec) (json.RawMessage, bool) {
	s.famMu.Lock()
	key, ok := s.family[spec.familyKey()]
	s.famMu.Unlock()
	if !ok {
		return nil, false
	}
	return s.lookupPlan(key)
}

// defaultServiceNanos seeds the Retry-After estimate before the first
// job has completed.
const defaultServiceNanos = int64(time.Second)

// serviceNanos returns the EWMA per-job service time in nanoseconds.
func (s *Server) serviceNanos() int64 {
	if n := s.svcNanos.Load(); n > 0 {
		return n
	}
	return defaultServiceNanos
}

// recordService folds one job's wall-clock into the service-time EWMA.
func (s *Server) recordService(d time.Duration) {
	n := int64(d)
	if n <= 0 {
		n = 1
	}
	for {
		old := s.svcNanos.Load()
		next := n
		if old != 0 {
			next = old + (n-old)/4
		}
		if s.svcNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a retried request would wait
// for a worker: pending work (queued + in-flight + the retry itself)
// times the recent per-job service time, spread over the worker set,
// clamped to [1, 60] seconds.
func (s *Server) retryAfterSeconds() int {
	pending := s.queuedN.Load() + s.inflight.Load() + 1
	per := s.serviceNanos()
	secs := (pending*per/int64(s.cfg.MaxInflight) + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return int(secs)
}

// retryAfter is retryAfterSeconds as a Retry-After header value.
func (s *Server) retryAfter() string {
	return strconv.Itoa(s.retryAfterSeconds())
}

// estimatedDelay is the expected queue wait for a newly admitted job.
func (s *Server) estimatedDelay() time.Duration {
	return time.Duration(s.queuedN.Load() * s.serviceNanos() / int64(s.cfg.MaxInflight))
}

// stopWatchdog halts the watchdog loop if one was armed.
func (s *Server) stopWatchdog() {
	if s.watchdog != nil {
		s.watchdog.Stop()
	}
}

// worker claims jobs — startup-resumed ones first, then the admission
// queue — until Drain closes the queue or a hard stop cancels the base
// context.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		if j := s.popResumed(); j != nil {
			s.run(j)
			continue
		}
		j, ok := <-s.queue
		if !ok {
			for j := s.popResumed(); j != nil; j = s.popResumed() {
				s.run(j)
			}
			return
		}
		s.run(j)
	}
}

func (s *Server) popResumed() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.resumedQ) == 0 {
		return nil
	}
	j := s.resumedQ[0]
	s.resumedQ = s.resumedQ[1:]
	return j
}

// run executes one job under internal/pool's panic isolation: a
// panicking search fails that job (stack captured in its error) and
// the daemon lives on.
func (s *Server) run(j *job) {
	s.queuedN.Add(-1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	j.setRunning()
	t0 := time.Now()
	out := pool.RunContext(s.baseCtx, 1, 1, func(int) { s.exec(j) })
	s.recordService(time.Since(t0))
	if perr := out.Err(); perr != nil {
		s.finishJob(j, StateFailed, nil, fmt.Errorf("job panicked: %v", perr))
	}
	if out.Skipped == 1 {
		// Hard stop won the race before the job started; its durable
		// admission record (if any) resumes it next start.
		s.finishJob(j, StateInterrupted, nil, errors.New("server stopped before the job ran"))
	}
}

// exec is the job pipeline: cache check, single-flight profile (under
// the breakers and the watchdog heartbeat), checkpointed search with
// progress events and deadline-budget early stop, durable plan
// persistence.
func (s *Server) exec(j *job) {
	spec := j.spec
	key := spec.key()
	if j.ctx == nil {
		j.arm(s.baseCtx, 0)
	}
	defer j.release()

	// A heal job reports its completion — any terminal state — to the
	// health monitor, so a platform's quarantine resolves only once all
	// of its outstanding heals are accounted for.
	var healed, healRolledBack bool
	if j.revalidate {
		defer func() { s.healDone(spec, healed, healRolledBack) }()
	}

	var hb *resilience.Heartbeat
	if s.watchdog != nil {
		hb = s.watchdog.Watch(j.id, func(cause error) {
			s.watchdogFired.Add(1)
			j.cancelCause(cause)
		})
		defer hb.Stop()
	}

	// A resumed job whose plan was already persisted (crash between
	// putPlan and dropJobRecord) finishes without searching. A heal job
	// skips this fast path: replacing that cached plan is its purpose.
	if !j.revalidate {
		if payload, ok := s.lookupPlan(key); ok {
			if s.store != nil {
				s.store.dropJobRecord(key)
			}
			s.finishJob(j, StateDone, payload, nil)
			return
		}
	}
	if j.ctx.Err() != nil && s.baseCtx.Err() == nil {
		// Abandoned or out of budget while queued; nothing ran yet.
		s.finishBudget(j, context.Cause(j.ctx))
		return
	}

	net, err := models.Build(spec.Network)
	if err != nil {
		s.finishJob(j, StateFailed, nil, err)
		return
	}
	board, ok := platform.Preset(spec.Platform)
	if !ok {
		s.finishJob(j, StateFailed, nil, fmt.Errorf("unknown platform %q", spec.Platform))
		return
	}

	// The single-flight build runs under the leader job's context, so
	// a leader's deadline can kill a build other jobs are parked on.
	// The flight evicts failed builds, so followers just retry and the
	// next leader rebuilds under its own (live) context.
	var tab *lut.Table
	var plan *searchplan.Plan
	var rep *profile.Report
	for tries := 0; ; tries++ {
		hb.Suspend() // parked on the flight: quiet time is not a stall
		var perr error
		tab, plan, rep, perr = s.flight.Get(spec.lutKey(), func() (*lut.Table, *profile.Report, error) {
			hb.Beat() // this job is the leader; its own work resumes
			return s.profileJob(j, hb, net, board)
		})
		hb.Beat()
		if perr == nil {
			break
		}
		if s.baseCtx.Err() != nil {
			s.finishJob(j, StateInterrupted, nil, fmt.Errorf("profiling interrupted: %w", perr))
			return
		}
		if j.ctx.Err() != nil {
			s.finishBudget(j, fmt.Errorf("profiling: %w", perr))
			return
		}
		if tries < 3 && (errors.Is(perr, context.Canceled) || errors.Is(perr, context.DeadlineExceeded)) {
			continue // another job's budget killed the shared build
		}
		s.finishFailed(j, fmt.Errorf("profiling: %w", perr))
		return
	}
	li := s.registerLUT(spec, net, board, tab, rep)

	var from *core.Snapshot
	if s.store != nil {
		from = s.store.loadSnapshot(key, tab)
	}
	var res *core.Result
	if from != nil && from.Checkpoint.Episode >= spec.Episodes && len(from.BestAssignment) > 0 {
		// The previous process checkpointed the full budget but died
		// before persisting the plan; the snapshot carries the final
		// best, so the result is rebuilt without re-searching.
		res = &core.Result{
			Assignment: append([]primitives.ID(nil), from.BestAssignment...),
			Time:       from.BestTime,
			Episodes:   spec.Episodes,
		}
	}
	if res == nil {
		if from != nil && from.Checkpoint.Episode >= spec.Episodes {
			from = nil // unusable snapshot; start over
		}
		s.searches.Add(1)
		cfg := core.Config{Episodes: spec.Episodes, Seed: spec.Seed}
		var serr error
		res, serr = core.SearchCheckpointedPlanned(plan, cfg, core.DurableOptions{
			Every: s.every,
			From:  from,
			Save: func(snap *core.Snapshot) error {
				hb.Beat()
				j.progress(snap.Checkpoint.Episode, snap.BestTime)
				if s.store != nil {
					payload, merr := snap.Marshal()
					if merr != nil {
						return merr
					}
					if werr := s.store.saveJobRecord(spec, payload); werr != nil {
						return werr
					}
				}
				if s.baseCtx.Err() != nil && snap.Checkpoint.Episode < spec.Episodes {
					// Hard stop: the snapshot just persisted is the
					// resume point; stop at this boundary.
					return errStopped
				}
				if j.ctx.Err() != nil && snap.Checkpoint.Episode < spec.Episodes {
					// Deadline budget (or cancellation) hit: stop at
					// this boundary with the best-so-far carried out.
					return fmt.Errorf("job context done: %w", core.ErrStopEarly)
				}
				return nil
			},
		})
		if serr != nil {
			if errors.Is(serr, errStopped) || s.baseCtx.Err() != nil {
				s.finishJob(j, StateInterrupted, nil, errors.New("server stopping; search checkpointed for resume"))
				return
			}
			if errors.Is(serr, core.ErrStopEarly) && res != nil {
				s.finishBestEffort(j, net, tab, res)
				return
			}
			if j.ctx.Err() != nil {
				s.finishBudget(j, serr)
				return
			}
			s.finishFailed(j, serr)
			return
		}
	}

	meta := planMeta{Epoch: li.epoch, Fingerprints: li.fps}
	if j.revalidate {
		// Rollback guard: re-price the plan being replaced on the fresh
		// table; if the re-search regressed against it, keep the parent
		// assignment (re-priced on fresh measurements) instead.
		if old, oldMeta, ok := s.previousPlan(key); ok {
			meta.ParentEpoch = oldMeta.Epoch
			if ids, t, rok := replayAssignment(old, tab); rok && t < res.Time {
				res = &core.Result{Assignment: ids, Time: t, Episodes: res.Episodes}
				meta.RolledBack = true
			}
		}
	}
	pr := buildPlanResponse(spec, net, tab, res)
	payload, err := json.Marshal(pr)
	if err != nil {
		s.finishJob(j, StateFailed, nil, err)
		return
	}
	if s.store != nil {
		if err := s.store.putPlan(key, payload, meta); err != nil {
			s.finishJob(j, StateFailed, nil, fmt.Errorf("persisting plan: %w", err))
			return
		}
		s.store.dropJobRecord(key)
	}
	s.lru.add(key, payload)
	s.noteFamily(key)
	s.notePlan(key, spec, meta)
	if j.revalidate {
		healed, healRolledBack = true, meta.RolledBack
	}
	s.finishJob(j, StateDone, payload, nil)
}

// profileJob builds the job's look-up table: the configured override
// when one exists (tests), otherwise the platform simulator composed
// with the configured resilience layers — fault injection innermost,
// then the circuit breakers, then the watchdog heartbeat, so a
// breaker fast-fail still beats (fast-failing is progress; stalling
// is not).
func (s *Server) profileJob(j *job, hb *resilience.Heartbeat, net *nn.Network, board *platform.Platform) (*lut.Table, *profile.Report, error) {
	tab, rep, err := s.profileJobInner(j, hb, net, board)
	if err == nil && s.tuner != nil {
		// Price the tuned configs in before the flight builds the
		// shared search plan; a mismatched cache just skips.
		applied, skipped := s.tuner.Apply(tab, net)
		s.tunerApplied.Add(int64(len(applied)))
		s.tunerSkipped.Add(int64(skipped))
	}
	return tab, rep, err
}

func (s *Server) profileJobInner(j *job, hb *resilience.Heartbeat, net *nn.Network, board *platform.Platform) (*lut.Table, *profile.Report, error) {
	spec := j.spec
	if s.profileFn != nil {
		return s.profileFn(j.ctx, net, board, spec.Mode, spec.Samples)
	}
	src := resilience.WithHeartbeat(hb, s.measureSource(net, board, spec.lutKey(), spec.Platform))
	return profile.RunContext(j.ctx, net, src, profile.Options{
		Mode: spec.Mode, Samples: spec.Samples, Robust: profile.RobustFor(s.cfg.Robust, s.cfg.Faults),
	})
}

// finishBestEffort completes a budget-exhausted job with its
// best-so-far plan, marked so the client knows the search budget was
// not fully spent. The partial plan is served to this job's waiters
// but never cached: a later identical request deserves the full run.
func (s *Server) finishBestEffort(j *job, net *nn.Network, tab *lut.Table, res *core.Result) {
	if cause := context.Cause(j.ctx); errors.Is(cause, errAbandoned) {
		s.finishCanceled(j, cause)
		return
	}
	if len(res.Assignment) == 0 {
		s.finishBudget(j, errors.New("no episode completed inside the budget"))
		return
	}
	pr := buildPlanResponse(j.spec, net, tab, res)
	pr.BudgetExhausted = true
	pr.EpisodesRun = res.Episodes
	payload, err := json.Marshal(pr)
	if err != nil {
		s.finishJob(j, StateFailed, nil, err)
		return
	}
	if s.store != nil {
		s.store.dropJobRecord(j.spec.key())
	}
	s.budgetExhausted.Add(1)
	s.finishJob(j, StateDone, payload, nil)
}

// finishBudget completes a job whose context died before a usable
// result existed: canceled outright, or — under brownout — answered
// with the newest cached plan of its family.
func (s *Server) finishBudget(j *job, cause error) {
	if c := context.Cause(j.ctx); c != nil && !errors.Is(c, context.Canceled) {
		cause = c
	}
	if errors.Is(cause, errAbandoned) {
		s.finishCanceled(j, cause)
		return
	}
	if s.cfg.Brownout {
		if payload, ok := s.lookupDegraded(j.spec); ok {
			if s.store != nil {
				s.store.dropJobRecord(j.spec.key())
			}
			j.setDegraded()
			s.degradedServed.Add(1)
			s.finishJob(j, StateDone, payload, nil)
			return
		}
	}
	s.finishCanceled(j, cause)
}

// finishFailed completes a genuinely failed job — under brownout with
// a degraded family plan when one exists, as a failure otherwise. A
// failed job's durable record is kept: a restarted server retries it.
func (s *Server) finishFailed(j *job, err error) {
	if s.cfg.Brownout {
		if payload, ok := s.lookupDegraded(j.spec); ok {
			if s.store != nil {
				s.store.dropJobRecord(j.spec.key())
			}
			j.setDegraded()
			s.degradedServed.Add(1)
			s.finishJob(j, StateDone, payload, nil)
			return
		}
	}
	s.finishJob(j, StateFailed, nil, err)
}

// finishCanceled completes a canceled job. Its durable record is
// dropped — except for watchdog stalls, where a restarted server
// (with a possibly healthier backend) should retry the work.
func (s *Server) finishCanceled(j *job, cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	if s.store != nil && !errors.Is(cause, resilience.ErrStalled) {
		s.store.dropJobRecord(j.spec.key())
	}
	s.finishJob(j, StateCanceled, nil, fmt.Errorf("job canceled: %w", cause))
}

// finishJob moves a job to a terminal state once, updates the outcome
// counters, releases its coalescing slot, and bounds the finished-job
// registry.
func (s *Server) finishJob(j *job, state string, plan json.RawMessage, err error) {
	select {
	case <-j.done:
		return // already terminal (e.g. the panic path raced exec)
	default:
	}
	j.finish(state, plan, err)
	switch state {
	case StateDone:
		s.completed.Add(1)
	case StateFailed:
		s.failed.Add(1)
	case StateInterrupted:
		s.interrupted.Add(1)
	case StateCanceled:
		s.canceled.Add(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey[j.spec.key()] == j {
		delete(s.byKey, j.spec.key())
	}
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.retain {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// Drain gracefully stops the daemon: admission closes (new POSTs get
// 503), queued and in-flight jobs run to completion, and only past the
// timeout does it hard-stop — in-flight searches then cut out at their
// next checkpoint boundary with a durable snapshot, and a server
// restarted on the same plan store resumes them to byte-identical
// results. timeout <= 0 hard-stops immediately. Drain is idempotent
// and returns when every worker has exited.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		close(s.canaryStop)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		s.cancel()
		<-done
		s.stopWatchdog()
		return
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		s.cancel()
		<-done
	}
	s.stopWatchdog()
}

// ReferencePlan computes, in-process and without a server, exactly the
// plan the daemon serves for req at the given checkpoint cadence —
// the same pipeline the CLI's durable search (`qsdnn search
// -checkpoint`) runs. Tests pin byte-identity between served, cached,
// crash-resumed and reference plans with it.
func ReferencePlan(ctx context.Context, req OptimizeRequest, every int) (*PlanResponse, []byte, error) {
	spec, err := req.spec()
	if err != nil {
		return nil, nil, err
	}
	net, err := models.Build(spec.Network)
	if err != nil {
		return nil, nil, err
	}
	board, _ := platform.Preset(spec.Platform)
	tab, _, err := defaultProfile(ctx, net, board, spec.Mode, spec.Samples)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.SearchCheckpointedPlanned(searchplan.Compile(tab), core.Config{Episodes: spec.Episodes, Seed: spec.Seed},
		core.DurableOptions{Every: every})
	if err != nil {
		return nil, nil, err
	}
	pr := buildPlanResponse(spec, net, tab, res)
	payload, err := json.Marshal(pr)
	if err != nil {
		return nil, nil, err
	}
	return pr, payload, nil
}
