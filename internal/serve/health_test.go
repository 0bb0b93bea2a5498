package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/resilience"
	"repro/internal/searchplan"
)

// driftFaultConfig is the e2e drift schedule: no error injection, two
// of the five CPU libraries drift — ATLAS steps to 3x, NNPACK ramps —
// so every detector decision is attributable to the injected drift.
func driftFaultConfig() *profile.FaultConfig {
	return &profile.FaultConfig{
		Seed:            7,
		DriftStep:       []string{"ATLAS"},
		DriftRamp:       []string{"NNPACK"},
		DriftFactor:     3,
		DriftRampRounds: 4,
	}
}

// driftedReference computes, without a server, the plan an optimizer
// would produce against the drifted environment at the given round —
// the byte-identity target for the self-healing gate.
func driftedReference(t *testing.T, body string, fc *profile.FaultConfig, round int64) []byte {
	t.Helper()
	var req OptimizeRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build(spec.Network)
	if err != nil {
		t.Fatal(err)
	}
	board, _ := platform.Preset(spec.Platform)
	src := profile.NewFaultSource(profile.NewSimSource(net, board), *fc)
	src.SetDriftRound(round)
	// The server defaults to the robust policy whenever faults are
	// configured; the reference must aggregate identically.
	tab, _, err := profile.RunContext(context.Background(), net, src,
		profile.Options{Mode: spec.Mode, Samples: spec.Samples, Robust: profile.DefaultRobust()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SearchCheckpointedPlanned(searchplan.Compile(tab), core.Config{Episodes: spec.Episodes, Seed: spec.Seed}, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(buildPlanResponse(spec, net, tab, res))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDriftQuarantineHealE2E is the acceptance gate for the plan-health
// subsystem: seeded step + ramp drift on 2 of 5 CPU libraries, 64
// concurrent requests against the quarantined plan — zero raw 500s,
// every response a usable plan marked revalidating — the detector
// quarantines exactly the drifted (platform, library) pairs, and the
// healed plan is byte-identical to one optimized directly against the
// drifted source.
func TestDriftQuarantineHealE2E(t *testing.T) {
	fc := driftFaultConfig()
	srv, ts := newTestServer(t, Config{
		MaxInflight: 2, QueueDepth: 80, PlanStore: t.TempDir(),
		Faults: fc,
		// No Interval: the test drives CanaryTick explicitly, so every
		// transition is deterministic. NoHeal separates the detection
		// phase (serve revalidating) from the healing phase (HealNow).
		Health: &health.Config{Seed: 3, CanarySize: 1 << 20, NoHeal: true},
	})
	body := `{"network":"lenet5","mode":"cpu","episodes":300,"samples":3,"seed":3,"wait":true}`

	// Phase 0: optimize in the undrifted environment (drift round 0 is
	// a clean schedule) and verify the plan serves fresh.
	code, _, payload := postOptimize(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("prime: %d (%s)", code, payload)
	}
	var prime OptimizeResponse
	if err := json.Unmarshal(payload, &prime); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prime.Plan, driftedReference(t, body, fc, 0)) {
		t.Fatalf("undrifted plan differs from the round-0 reference: %s", prime.Plan)
	}
	code, _, payload = postOptimize(t, ts.URL, body)
	var cached OptimizeResponse
	if err := json.Unmarshal(payload, &cached); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !cached.Cached || cached.Revalidating || cached.Age != 0 {
		t.Fatalf("pre-drift cached response: %d %s", code, payload)
	}

	// Phase 1: the environment shifts. Three advances put the step
	// library at 3x and the ramp library at 2.5x.
	for i := 0; i < 3; i++ {
		srv.AdvanceDrift()
	}
	tick := srv.CanaryTick(context.Background())
	if tick.Measured == 0 || tick.Drifted == 0 {
		t.Fatalf("canary tick saw nothing: %+v", tick)
	}
	if tick.Quarantined != 2 {
		t.Fatalf("quarantined %d pairs, want exactly 2 (ATLAS, NNPACK): %+v", tick.Quarantined, tick)
	}
	st := srv.Status()
	if st.Quarantines != 2 || st.LUTEvictions == 0 {
		t.Fatalf("quarantine counters: %+v", st)
	}
	quarantined := map[string]bool{}
	for _, h := range st.Health {
		if h.Platform != "tx2-like" {
			t.Fatalf("unexpected platform in health status: %+v", h)
		}
		switch h.State {
		case "quarantined":
			quarantined[h.Library] = true
		case "fresh", "suspect":
			if h.Library == "ATLAS" || h.Library == "NNPACK" {
				t.Fatalf("drifted library not quarantined: %+v", h)
			}
		default:
			t.Fatalf("unexpected health state: %+v", h)
		}
	}
	if len(quarantined) != 2 || !quarantined["ATLAS"] || !quarantined["NNPACK"] {
		t.Fatalf("quarantined set = %v, want exactly {ATLAS, NNPACK}", quarantined)
	}

	// Phase 2: 64 concurrent requests against the quarantined plan.
	// Never a 500 — every reply is the cached plan, honestly marked
	// revalidating (NoHeal keeps the window open deterministically).
	var wg sync.WaitGroup
	codes := make([]int, 64)
	bodies := make([][]byte, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, c, bodies[i])
		}
		var or OptimizeResponse
		if err := json.Unmarshal(bodies[i], &or); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if or.State != StateDone || len(or.Plan) == 0 {
			t.Fatalf("request %d: not a servable plan: %s", i, bodies[i])
		}
		if !or.Revalidating {
			t.Fatalf("request %d: quarantined plan served without the revalidating mark: %s", i, bodies[i])
		}
	}
	if st := srv.Status(); st.RevalServed < 64 {
		t.Fatalf("revalidating_served = %d, want >= 64", st.RevalServed)
	}

	// Phase 3: heal. The re-optimization re-profiles the drifted
	// environment and atomically replaces the stale plan.
	if n := srv.HealNow(); n != 1 {
		t.Fatalf("HealNow enqueued %d jobs, want 1", n)
	}
	waitFor(t, 30*time.Second, func() bool { return srv.Status().Healed == 1 }, "heal to complete")

	code, _, payload = postOptimize(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("post-heal: %d (%s)", code, payload)
	}
	var healed OptimizeResponse
	if err := json.Unmarshal(payload, &healed); err != nil {
		t.Fatal(err)
	}
	if !healed.Cached || healed.Revalidating || healed.Age != 0 {
		t.Fatalf("post-heal response not fresh: %s", payload)
	}
	if healed.PlanEpoch == 0 {
		t.Fatalf("healed plan did not advance the profile epoch: %s", payload)
	}
	if bytes.Equal(healed.Plan, prime.Plan) {
		t.Fatal("heal served the pre-drift plan unchanged")
	}
	if want := driftedReference(t, body, fc, 3); !bytes.Equal(healed.Plan, want) {
		t.Fatalf("healed plan differs from the drifted-environment reference\ngot:  %s\nwant: %s", healed.Plan, want)
	}
	st = srv.Status()
	if st.RolledBack != 0 {
		t.Fatalf("heal rolled back against a fresh optimum: %+v", st)
	}
	for _, h := range st.Health {
		if h.Library == "ATLAS" || h.Library == "NNPACK" {
			if h.State != "healed" {
				t.Fatalf("post-heal state for %s = %q, want healed", h.Library, h.State)
			}
		}
	}
	if st.ProfileEpoch == 0 {
		t.Fatalf("profile epoch did not advance: %+v", st)
	}
}

// TestQuarantineHealGoldenFaultFree: quarantining and healing in a
// stable environment is a no-op on the plan bytes — a false-alarm
// quarantine re-profiles, re-searches, and lands byte-for-byte on the
// plan it replaced (and on the serverless reference). The healing
// machinery itself must not perturb results.
func TestQuarantineHealGoldenFaultFree(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		MaxInflight: 1, QueueDepth: 8, PlanStore: t.TempDir(),
		Health: &health.Config{NoHeal: true},
	})
	body := `{"network":"lenet5","mode":"cpu","episodes":300,"samples":3,"seed":5,"wait":true}`
	code, _, payload := postOptimize(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("prime: %d (%s)", code, payload)
	}
	var prime OptimizeResponse
	if err := json.Unmarshal(payload, &prime); err != nil {
		t.Fatal(err)
	}

	// Force a false-alarm quarantine through the real machinery: the
	// monitor confirms the pair, the LUT is marked stale and evicted.
	if !srv.monitor.NoteDrift("tx2-like", "OpenBLAS", 2) {
		t.Fatal("forced drift note did not confirm quarantine")
	}
	srv.quarantine("tx2-like", "OpenBLAS")
	code, _, payload = postOptimize(t, ts.URL, body)
	var reval OptimizeResponse
	if err := json.Unmarshal(payload, &reval); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !reval.Revalidating {
		t.Fatalf("quarantined plan not served revalidating: %d %s", code, payload)
	}

	if n := srv.HealNow(); n != 1 {
		t.Fatalf("HealNow enqueued %d jobs, want 1", n)
	}
	waitFor(t, 30*time.Second, func() bool { return srv.Status().Healed == 1 }, "heal to complete")
	code, _, payload = postOptimize(t, ts.URL, body)
	var healed OptimizeResponse
	if err := json.Unmarshal(payload, &healed); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || healed.Revalidating {
		t.Fatalf("post-heal response: %d %s", code, payload)
	}
	if !bytes.Equal(healed.Plan, prime.Plan) {
		t.Fatalf("fault-free heal changed the plan\nbefore: %s\nafter:  %s", prime.Plan, healed.Plan)
	}
	var req OptimizeRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	_, want, err := ReferencePlan(context.Background(), req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed.Plan, want) {
		t.Fatalf("healed plan differs from reference\ngot:  %s\nwant: %s", healed.Plan, want)
	}
	if st := srv.Status(); len(st.Health) == 0 || st.Health[0].State != "healed" {
		t.Fatalf("health after golden heal: %+v", st.Health)
	}
}

// TestBreakerDegradedLUTEviction extends the PR 7 breaker e2e: a table
// whose candidates were dropped by breaker fast-fails is evicted from
// the single-flight cache once its platform's breakers close again, and
// the self-healing re-optimization restores the fault-free plan.
func TestBreakerDegradedLUTEviction(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

	srv, ts := newTestServer(t, Config{
		MaxInflight: 1, QueueDepth: 8, PlanStore: t.TempDir(),
		// Every NNPACK measurement fails exactly its first attempt; no
		// retries, so the first failure drops the candidate and trips
		// the breaker, and everything after fast-fails.
		Faults: &profile.FaultConfig{Seed: 13, TransientRate: 1, TransientBurst: 1,
			FaultLibraries: []string{"NNPACK"}},
		Robust: &profile.Robust{MaxRetries: 0},
		Breaker: &resilience.BreakerConfig{
			FailureThreshold: 1, Probes: 1,
			Cooldown: time.Hour, Now: clock,
		},
		Health: &health.Config{Seed: 5, CanarySize: 1 << 20},
	})
	body := `{"network":"lenet5","mode":"cpu","episodes":300,"samples":3,"seed":2,"wait":true}`
	code, _, payload := postOptimize(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("degraded build: %d (%s)", code, payload)
	}
	var degraded OptimizeResponse
	if err := json.Unmarshal(payload, &degraded); err != nil {
		t.Fatal(err)
	}
	open, fastFails := false, int64(0)
	for _, b := range srv.Status().Breakers {
		if b.Library == "NNPACK" {
			open = b.State != resilience.Closed
			fastFails = b.FastFails
		}
	}
	if !open || fastFails == 0 {
		t.Fatalf("NNPACK breaker not tripped into fast-fails: %+v", srv.Status().Breakers)
	}

	// Canary rounds double as recovery probes: each tick the half-open
	// breaker admits a probe, and each probe burns one single-shot
	// transient until a full round passes clean and the breaker closes
	// — at which point the degraded table is evicted and healed.
	//
	// The heal the eviction tick enqueues re-profiles asynchronously and
	// may re-trip a breaker mid-build (see below), so breakers read while
	// it runs race it. Heals stay off until the breakers are checked,
	// and the held-back heal is enqueued then, as the tick would have:
	// only CanaryTick reads NoHeal, and it runs on this goroutine.
	srv.hcfg.NoHeal = true
	ctx := context.Background()
	for i := 0; i < 100 && srv.Status().DegradedLUTEvic == 0; i++ {
		advance(2 * time.Hour)
		srv.CanaryTick(ctx)
	}
	st := srv.Status()
	if st.DegradedLUTEvic == 0 {
		t.Fatalf("degraded LUT never evicted after breaker recovery: %+v", st)
	}
	for _, b := range st.Breakers {
		if b.State != resilience.Closed {
			t.Fatalf("breaker %s/%s not closed after recovery: %+v", b.Platform, b.Library, b)
		}
	}
	srv.hcfg.NoHeal = false
	srv.healStale()
	if st.Quarantines != 0 {
		t.Fatalf("breaker recovery misattributed to drift quarantine: %+v", st)
	}
	// Each heal re-profiles through the shared fault source: the sample
	// identities the canaries burned now pass, but the edge phase keeps
	// discovering fresh single-shot transients, re-tripping the breaker
	// mid-build — the healed table is better than the last but still
	// partial. The recovery loop therefore converges identity by
	// identity: close the breaker (one canary probe), evict the degraded
	// table, heal, repeat — until a build passes fully clean and the
	// healed plan is byte-identical to the fault-free reference.
	var req OptimizeRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	_, want, err := ReferencePlan(ctx, req, 0)
	if err != nil {
		t.Fatal(err)
	}
	var last OptimizeResponse
	converged := false
	for cycle := 0; cycle < 200 && !converged; cycle++ {
		waitFor(t, 30*time.Second, func() bool {
			st := srv.Status()
			return st.Healed >= st.HealsEnqueued
		}, "heal cycle to settle")
		code, _, payload = postOptimize(t, ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("recovery cycle %d: %d (%s)", cycle, code, payload)
		}
		if err := json.Unmarshal(payload, &last); err != nil {
			t.Fatal(err)
		}
		if !last.Revalidating && bytes.Equal(last.Plan, want) {
			converged = true
			break
		}
		advance(2 * time.Hour)
		srv.CanaryTick(ctx)
	}
	if !converged {
		t.Fatalf("healed plan never converged to the fault-free reference\nlast: %s\nwant: %s", last.Plan, want)
	}
	st = srv.Status()
	if st.Healed == 0 {
		t.Fatalf("converged without any completed heal: %+v", st)
	}
	if st.Quarantines != 0 {
		t.Fatalf("breaker recovery misattributed to drift quarantine: %+v", st)
	}
}

// TestPlanTTLRevalidation: -plan-ttl marks plans revalidating once
// their LUT has advanced past the TTL in profile epochs — age is
// epoch-based, never wall-clock.
func TestPlanTTLRevalidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		MaxInflight: 1, QueueDepth: 8,
		Health: &health.Config{PlanTTL: 1, NoHeal: true},
	})
	mkBody := func(seed int) string {
		return fmt.Sprintf(`{"network":"lenet5","mode":"cpu","episodes":200,"samples":3,"seed":%d,"wait":true}`, seed)
	}
	code, _, payload := postOptimize(t, ts.URL, mkBody(1))
	if code != http.StatusOK {
		t.Fatalf("prime: %d (%s)", code, payload)
	}
	code, _, payload = postOptimize(t, ts.URL, mkBody(1))
	var fresh OptimizeResponse
	json.Unmarshal(payload, &fresh)
	if code != http.StatusOK || fresh.Revalidating || fresh.Age != 0 {
		t.Fatalf("plan at age 0 not fresh: %s", payload)
	}

	// Force a re-profile of the shared LUT under a different plan key:
	// the profile epoch advances, aging the first plan past its TTL.
	spec, err := specFromKey("lenet5|tx2-like|cpu|latency|e200|s3|r1")
	if err != nil {
		t.Fatal(err)
	}
	if !srv.flight.Evict(spec.lutKey()) {
		t.Fatal("LUT eviction failed")
	}
	code, _, payload = postOptimize(t, ts.URL, mkBody(2))
	if code != http.StatusOK {
		t.Fatalf("re-profile request: %d (%s)", code, payload)
	}

	code, _, payload = postOptimize(t, ts.URL, mkBody(1))
	var aged OptimizeResponse
	if err := json.Unmarshal(payload, &aged); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !aged.Revalidating || aged.Age != 1 {
		t.Fatalf("plan past TTL not marked revalidating (age %d): %s", aged.Age, payload)
	}
	// The plan optimized against the fresh epoch is not aged.
	code, _, payload = postOptimize(t, ts.URL, mkBody(2))
	var young OptimizeResponse
	json.Unmarshal(payload, &young)
	if code != http.StatusOK || young.Revalidating || young.Age != 0 {
		t.Fatalf("fresh-epoch plan marked stale: %s", payload)
	}
}

// TestReplayAssignment pins the rollback check's pricing primitive: a
// stored plan re-prices exactly on a fresh table, and payloads that no
// longer fit the table are rejected rather than mispriced.
func TestReplayAssignment(t *testing.T) {
	net := models.MustBuild("lenet5")
	board, _ := platform.Preset("tx2-like")
	tab, _, err := profile.RunContext(context.Background(), net,
		profile.NewSimSource(net, board),
		profile.Options{Mode: primitives.ModeCPU, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SearchCheckpointedPlanned(searchplan.Compile(tab), core.Config{Episodes: 200, Seed: 1}, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := specFromKey("lenet5|tx2-like|cpu|latency|e200|s3|r1")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(buildPlanResponse(spec, net, tab, res))
	if err != nil {
		t.Fatal(err)
	}
	ids, total, ok := replayAssignment(payload, tab)
	if !ok {
		t.Fatal("valid plan failed to replay")
	}
	if total != tab.TotalTime(ids) || total != res.Time {
		t.Fatalf("replay total %v, want %v", total, res.Time)
	}
	if _, _, ok := replayAssignment([]byte(`{"assignment":[0]}`), tab); ok {
		t.Error("short assignment replayed")
	}
	if _, _, ok := replayAssignment([]byte(`not json`), tab); ok {
		t.Error("garbage payload replayed")
	}
	var pr PlanResponse
	if err := json.Unmarshal(payload, &pr); err != nil {
		t.Fatal(err)
	}
	pr.Assignment[1] = 9999 // not a candidate of any layer
	alien, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := replayAssignment(alien, tab); ok {
		t.Error("assignment naming a non-candidate replayed")
	}
}

// TestStatuszDuringDrain pins the drain contract: /healthz flips to
// 503 (with Retry-After) the moment drain begins, while /statusz stays
// reachable and reports draining:true — operators keep observability
// while the daemon sheds load.
func TestStatuszDuringDrain(t *testing.T) {
	gate := make(chan struct{})
	cp := newCountingProfile(gate)
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 4, Profile: cp.fn()})
	// Park a job so the drain has something to wait on.
	code, _, payload := postOptimize(t, ts.URL, `{"network":"lenet5","mode":"cpu","episodes":200,"samples":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d (%s)", code, payload)
	}
	waitFor(t, 5*time.Second, func() bool { return cp.total() == 1 }, "job to park in profiling")

	drained := make(chan struct{})
	go func() {
		srv.Drain(30 * time.Second)
		close(drained)
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.Status().Draining }, "drain to begin")

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("healthz 503 without Retry-After")
	}

	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz during drain: %d, want 200", resp.StatusCode)
	}
	var st Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statusz decode during drain: %v", err)
	}
	resp.Body.Close()
	if !st.Draining {
		t.Fatalf("statusz during drain: %+v", st)
	}
	if st.GemmKernel == "" {
		t.Fatal("statusz did not report the dispatched GEMM kernel")
	}

	close(gate)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not finish after the gate opened")
	}
}
