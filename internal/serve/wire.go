// Package serve is the optimization-as-a-service daemon: a long-lived
// HTTP server that accepts (network, platform, objective, budget)
// requests and returns optimized deployment plans, composing the
// layers the batch pipeline already hardened — admission control and
// bounded queueing in front of a fixed worker set (each job executes
// under internal/pool's panic isolation), request coalescing of
// identical jobs plus single-flight LUT profiling via runner.Flight,
// a persistent plan/checkpoint store built on internal/store's atomic
// checksummed writes and last-good rotation with a warm in-memory LRU
// in front, streaming search progress from
// core.SearchCheckpointedPlanned cadence callbacks, and graceful drain
// that lets in-flight searches finish — or, past the drain deadline,
// checkpoint durably and resume on the next start.
//
// The JSON API:
//
//	POST /v1/optimize            submit a job (or get a cached plan)
//	GET  /v1/jobs/{id}           poll a job's status and result
//	GET  /v1/jobs/{id}/events    stream progress (server-sent events)
//	GET  /healthz                liveness (503 while draining)
//	GET  /statusz                counters: queue, cache, coalescing
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
)

// Budget ceilings: a request past these is a client error, not a
// denial-of-service vector. They sit far above anything the paper's
// experiments need (1000 episodes, 50 samples).
const (
	// MaxEpisodes bounds the per-request search budget.
	MaxEpisodes = 1_000_000
	// MaxSamples bounds the per-request profiling average count.
	MaxSamples = 100_000
	// MaxDeadlineMS bounds the per-request deadline budget (one hour).
	MaxDeadlineMS = 3_600_000
	// MaxBodyBytes bounds the request body the decoder will read.
	MaxBodyBytes = 1 << 20
)

// OptimizeRequest is the POST /v1/optimize body. Zero fields take the
// paper's defaults (tx2-like platform, gpgpu mode, latency objective,
// 1000 episodes, 50 samples, seed 1). Budgets are declared as float64
// so malformed values (NaN, ±Inf, negatives, fractions, overflow) are
// rejected with a 400 by validation instead of being silently
// truncated by integer decoding.
type OptimizeRequest struct {
	// Network is the zoo model name (required).
	Network string `json:"network"`
	// Platform is the board preset name (default "tx2-like").
	Platform string `json:"platform,omitempty"`
	// Mode is "cpu" or "gpgpu" (default "gpgpu").
	Mode string `json:"mode,omitempty"`
	// Objective is the optimization target; only "latency" today.
	Objective string `json:"objective,omitempty"`
	// Episodes is the search budget (default 1000).
	Episodes float64 `json:"episodes,omitempty"`
	// Samples is the profiling average count (default 50).
	Samples float64 `json:"samples,omitempty"`
	// Seed drives the search agent (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS is the optional end-to-end latency budget in
	// milliseconds, measured from admission. The server caps it at its
	// -max-deadline; a job that exhausts it returns its best-so-far
	// plan marked budget_exhausted (or a degraded cached plan under
	// brownout) instead of running on. 0 means no client deadline.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// Wait blocks the POST until the job finishes and returns the
	// plan inline instead of a 202 + job id.
	Wait bool `json:"wait,omitempty"`
}

// jobSpec is a validated, defaulted request — the canonical form every
// downstream stage (coalescing keys, search config, plan payload)
// works from.
type jobSpec struct {
	Network   string
	Platform  string
	Mode      primitives.Mode
	ModeName  string
	Objective string
	Episodes  int
	Samples   int
	Seed      int64
	// Deadline is the client's end-to-end budget (0 = none). It is
	// deliberately NOT part of key(): the plan a request produces does
	// not depend on its deadline, so requests that differ only in
	// deadline still coalesce and share cached plans.
	Deadline time.Duration
}

// badRequestError marks a client error the handler maps to 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// isBadRequest reports whether err is a request-validation failure.
func isBadRequest(err error) bool {
	_, ok := err.(*badRequestError)
	return ok
}

// decodeOptimizeRequest reads, decodes, and validates a request body.
// Every failure mode — malformed JSON, wrong types, NaN/Inf/negative
// budgets, unknown network/platform/mode/objective — is a
// badRequestError; the decoder never panics on any input (pinned by
// FuzzOptimizeRequest).
func decodeOptimizeRequest(r io.Reader) (*OptimizeRequest, *jobSpec, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxBodyBytes+1))
	if err != nil {
		return nil, nil, badRequest("reading body: %v", err)
	}
	if len(data) > MaxBodyBytes {
		return nil, nil, badRequest("body exceeds %d bytes", MaxBodyBytes)
	}
	var req OptimizeRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, nil, badRequest("decoding request: %v", err)
	}
	spec, err := req.spec()
	if err != nil {
		return nil, nil, err
	}
	return &req, spec, nil
}

// budget validates one float-declared integer budget and applies its
// default.
func budget(name string, v float64, def, max int) (int, error) {
	if v == 0 {
		return def, nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, badRequest("%s must be a finite number (got %v)", name, v)
	}
	if v < 0 {
		return 0, badRequest("%s must be positive (got %v)", name, v)
	}
	if v != math.Trunc(v) {
		return 0, badRequest("%s must be an integer (got %v)", name, v)
	}
	if v > float64(max) {
		return 0, badRequest("%s exceeds the limit %d (got %v)", name, max, v)
	}
	return int(v), nil
}

// spec validates the request and returns its canonical form.
func (r *OptimizeRequest) spec() (*jobSpec, error) {
	s := &jobSpec{
		Network:   strings.TrimSpace(r.Network),
		Platform:  r.Platform,
		ModeName:  r.Mode,
		Objective: r.Objective,
		Seed:      r.Seed,
	}
	if s.Network == "" {
		return nil, badRequest("network is required (one of %s)", strings.Join(models.All(), ", "))
	}
	if !models.Known(s.Network) {
		return nil, badRequest("unknown network %q (one of %s)", s.Network, strings.Join(models.All(), ", "))
	}
	if s.Platform == "" {
		s.Platform = "tx2-like"
	}
	if _, ok := platform.Preset(s.Platform); !ok {
		return nil, badRequest("unknown platform %q", s.Platform)
	}
	switch s.ModeName {
	case "", "gpgpu":
		s.Mode, s.ModeName = primitives.ModeGPGPU, "gpgpu"
	case "cpu":
		s.Mode = primitives.ModeCPU
	default:
		return nil, badRequest("unknown mode %q (want cpu or gpgpu)", s.ModeName)
	}
	switch s.Objective {
	case "", "latency":
		s.Objective = "latency"
	default:
		return nil, badRequest("unknown objective %q (only latency is served)", s.Objective)
	}
	var err error
	if s.Episodes, err = budget("episodes", r.Episodes, 1000, MaxEpisodes); err != nil {
		return nil, err
	}
	if s.Samples, err = budget("samples", r.Samples, 50, MaxSamples); err != nil {
		return nil, err
	}
	deadlineMS, err := budget("deadline_ms", r.DeadlineMS, 0, MaxDeadlineMS)
	if err != nil {
		return nil, err
	}
	s.Deadline = time.Duration(deadlineMS) * time.Millisecond
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s, nil
}

// key is the request-coalescing identity: two requests with equal keys
// produce byte-identical plans, so they share one search and one
// stored plan.
func (s *jobSpec) key() string {
	return fmt.Sprintf("%s|%s|%s|%s|e%d|s%d|r%d",
		s.Network, s.Platform, s.ModeName, s.Objective, s.Episodes, s.Samples, s.Seed)
}

// familyKey is the brownout-substitution identity: the (network,
// platform, mode, objective) prefix of key(). Plans within one family
// answer the same deployment question — they differ only in search
// budget, sampling effort, or seed — so the newest cached plan of the
// family is an honest degraded answer when the exact plan cannot be
// computed in time.
func (s *jobSpec) familyKey() string {
	return fmt.Sprintf("%s|%s|%s|%s", s.Network, s.Platform, s.ModeName, s.Objective)
}

// familyOfKey reduces a full coalescing key to its family prefix.
func familyOfKey(key string) string {
	parts := strings.SplitN(key, "|", 5)
	if len(parts) < 5 {
		return key
	}
	return strings.Join(parts[:4], "|")
}

// lutKey is the profiling identity: requests that agree on it consume
// byte-identical look-up tables (profiling is deterministic per sample
// index), so profiling is single-flighted per lutKey even across
// requests with different seeds or episode budgets.
func (s *jobSpec) lutKey() string {
	return fmt.Sprintf("%s|%s|%s|s%d", s.Network, s.Platform, s.ModeName, s.Samples)
}

// request reconstructs the normalized wire request — the form the
// durable job record persists so a killed server can re-admit the job
// on restart.
func (s *jobSpec) request() OptimizeRequest {
	return OptimizeRequest{
		Network:    s.Network,
		Platform:   s.Platform,
		Mode:       s.ModeName,
		Objective:  s.Objective,
		Episodes:   float64(s.Episodes),
		Samples:    float64(s.Samples),
		Seed:       s.Seed,
		DeadlineMS: float64(s.Deadline / time.Millisecond),
	}
}

// PlanChoice is one layer's selected primitive in a served plan.
type PlanChoice struct {
	Layer     string  `json:"layer"`
	Kind      string  `json:"kind"`
	Primitive string  `json:"primitive"`
	Library   string  `json:"library"`
	Processor string  `json:"processor"`
	Seconds   float64 `json:"seconds"`
}

// PlanResponse is an optimized deployment plan as served to clients.
// It carries no wall-clock or session-local state (no learning curve,
// no elapsed times), so a plan computed cold, from cache, coalesced,
// or resumed after a crash is byte-identical for a given request.
type PlanResponse struct {
	Network          string       `json:"network"`
	Platform         string       `json:"platform"`
	Mode             string       `json:"mode"`
	Objective        string       `json:"objective"`
	Episodes         int          `json:"episodes"`
	Samples          int          `json:"samples"`
	Seed             int64        `json:"seed"`
	Seconds          float64      `json:"seconds"`
	VanillaSeconds   float64      `json:"vanilla_seconds"`
	BSLSeconds       float64      `json:"bsl_seconds"`
	BSLLibrary       string       `json:"bsl_library"`
	SpeedupVsVanilla float64      `json:"speedup_vs_vanilla"`
	SpeedupVsBSL     float64      `json:"speedup_vs_bsl"`
	Assignment       []int        `json:"assignment"`
	Choices          []PlanChoice `json:"choices"`
	// BudgetExhausted marks a best-so-far plan returned because the
	// request's deadline budget ran out before the full episode budget;
	// EpisodesRun is how many episodes actually completed. Both are
	// omitted from full-budget plans, which stay byte-identical to
	// pre-deadline servers.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	EpisodesRun     int  `json:"episodes_run,omitempty"`
}

// finite maps non-finite measurements to 0 so the plan stays
// marshalable: on a heavily degraded table a baseline (all-Vanilla, or
// a whole-library substitution) can be unmeasurable (+Inf) even though
// the mixed plan itself is fine, and JSON cannot carry Inf/NaN. A zero
// baseline (and the zero speedup it implies) tells the client "no
// baseline on this table" the same way a zero BestSeconds does in
// progress events. Healthy tables only ever see finite values, so
// full-budget plans are byte-identical to pre-degradation servers.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// buildPlanResponse assembles the served plan from a finished search —
// the serve-side mirror of the public qsdnn.Report, restricted to
// fields that are deterministic for a fixed request.
func buildPlanResponse(spec *jobSpec, net *nn.Network, tab *lut.Table, res *core.Result) *PlanResponse {
	bslLib, bsl := core.BestSingleLibrary(tab)
	p := &PlanResponse{
		Network:        spec.Network,
		Platform:       spec.Platform,
		Mode:           spec.ModeName,
		Objective:      spec.Objective,
		Episodes:       spec.Episodes,
		Samples:        spec.Samples,
		Seed:           spec.Seed,
		Seconds:        finite(res.Time),
		VanillaSeconds: finite(core.VanillaTime(tab)),
		BSLSeconds:     finite(bsl.Time),
		BSLLibrary:     bslLib.String(),
		Assignment:     make([]int, 0, len(res.Assignment)),
	}
	if p.Seconds > 0 {
		p.SpeedupVsVanilla = p.VanillaSeconds / p.Seconds
		p.SpeedupVsBSL = p.BSLSeconds / p.Seconds
	}
	for _, id := range res.Assignment {
		p.Assignment = append(p.Assignment, int(id))
	}
	for i := 1; i < net.Len(); i++ {
		l := net.Layers[i]
		pr := primitives.ByID(res.Assignment[i])
		p.Choices = append(p.Choices, PlanChoice{
			Layer:     l.Name,
			Kind:      l.Kind.String(),
			Primitive: pr.Name,
			Library:   pr.Lib.String(),
			Processor: pr.Proc.String(),
			Seconds:   finite(tab.Time(i, pr.Idx)),
		})
	}
	return p
}

// Event is one progress update of a running job, emitted at every
// checkpoint-cadence boundary and at the terminal transition.
type Event struct {
	// State is the job state at the event ("running", "done",
	// "failed", "interrupted").
	State string `json:"state"`
	// Episode is the number of episodes completed so far.
	Episode int `json:"episode"`
	// Total is the request's episode budget.
	Total int `json:"total"`
	// BestSeconds is the best inference time found so far; 0 until a
	// first episode completes (JSON cannot carry +Inf).
	BestSeconds float64 `json:"best_seconds,omitempty"`
}

// OptimizeResponse is the POST /v1/optimize and GET /v1/jobs/{id}
// reply envelope.
type OptimizeResponse struct {
	// ID is the job id (empty for purely cache-served replies).
	ID string `json:"id,omitempty"`
	// State is "queued", "running", "done", "failed" or "interrupted".
	State string `json:"state"`
	// Cached marks a plan served from the store/LRU without a search.
	Cached bool `json:"cached,omitempty"`
	// Degraded marks a brownout reply: Plan is the newest cached plan
	// of the request's family (same network/platform/mode/objective),
	// not the exact plan requested. The response carries a Retry-After
	// estimating when the exact plan could be computed.
	Degraded bool `json:"degraded,omitempty"`
	// Progress is the latest progress event of a running job.
	Progress *Event `json:"progress,omitempty"`
	// Plan is the optimized plan, present when State is "done". Kept
	// raw so the bytes served are exactly the bytes stored.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Error is the failure cause when State is "failed".
	Error string `json:"error,omitempty"`
	// PlanEpoch is the profile epoch the served plan's LUT was measured
	// under; Age is how many epochs the measurement environment has
	// advanced since (0 = current). Both live on the envelope, not the
	// plan, so plan bytes stay byte-identical across epochs.
	PlanEpoch int64 `json:"plan_epoch,omitempty"`
	Age       int64 `json:"age,omitempty"`
	// Revalidating marks a cached plan served while its measurements
	// are quarantined (or past TTL) and a background re-optimization is
	// pending or in flight: still a usable answer — never a 500 — but
	// the client is told it may be superseded.
	Revalidating bool `json:"revalidating,omitempty"`
}

// specFromKey inverts jobSpec.key(): it parses the canonical 7-part
// coalescing key back into a validated spec. Used when rebuilding
// health bookkeeping from durable plan keys at boot and when a heal
// job is enqueued from a stored key rather than a live request.
func specFromKey(key string) (*jobSpec, error) {
	parts := strings.Split(key, "|")
	if len(parts) != 7 {
		return nil, fmt.Errorf("serve: plan key %q: want 7 fields, got %d", key, len(parts))
	}
	var episodes, samples int
	var seed int64
	if _, err := fmt.Sscanf(parts[4], "e%d", &episodes); err != nil {
		return nil, fmt.Errorf("serve: plan key %q: bad episodes field %q", key, parts[4])
	}
	if _, err := fmt.Sscanf(parts[5], "s%d", &samples); err != nil {
		return nil, fmt.Errorf("serve: plan key %q: bad samples field %q", key, parts[5])
	}
	if _, err := fmt.Sscanf(parts[6], "r%d", &seed); err != nil {
		return nil, fmt.Errorf("serve: plan key %q: bad seed field %q", key, parts[6])
	}
	req := OptimizeRequest{
		Network:   parts[0],
		Platform:  parts[1],
		Mode:      parts[2],
		Objective: parts[3],
		Episodes:  float64(episodes),
		Samples:   float64(samples),
		Seed:      seed,
	}
	spec, err := req.spec()
	if err != nil {
		return nil, fmt.Errorf("serve: plan key %q: %w", key, err)
	}
	if spec.key() != key {
		return nil, fmt.Errorf("serve: plan key %q does not round-trip (got %q)", key, spec.key())
	}
	return spec, nil
}
