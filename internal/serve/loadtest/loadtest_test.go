package loadtest

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/profile"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// faultyConfig is the chaos configuration of the resilience load
// gate: half the non-Vanilla (layer, primitive) measurements fail
// permanently, a quarter fail transiently, breakers trip after 3
// consecutive failures, brownout substitution is on, and every request
// runs under a deadline budget.
func faultyConfig() serve.Config {
	return serve.Config{
		MaxInflight:   2,
		QueueDepth:    256,
		SnapshotEvery: 200,
		MaxDeadline:   5 * time.Second,
		Brownout:      true,
		Faults: &profile.FaultConfig{
			Seed:          7,
			TransientRate: 0.25,
			PermanentRate: 0.5,
		},
		Robust:  &profile.Robust{MaxRetries: 1, MinValidFrac: 0.25},
		Breaker: &resilience.BreakerConfig{FailureThreshold: 3},
	}
}

// faultyBodies mixes quick jobs that finish inside the budget with
// 1e6-episode searches that cannot, all wait:true under a 2s
// deadline_ms.
func faultyBodies() [][]byte {
	var bodies [][]byte
	for seed := 1; seed <= 4; seed++ {
		bodies = append(bodies, []byte(fmt.Sprintf(
			`{"network":"lenet5","mode":"cpu","episodes":300,"samples":3,"seed":%d,"wait":true,"deadline_ms":2000}`, seed)))
		bodies = append(bodies, []byte(fmt.Sprintf(
			`{"network":"lenet5","mode":"cpu","episodes":1000000,"samples":3,"seed":%d,"wait":true,"deadline_ms":2000}`, 100+seed)))
	}
	return bodies
}

// TestLoadFaultyDeadline is the resilience acceptance gate: under a
// seeded 50%-failing source with per-request 2s deadline budgets,
// every request must complete (no hangs) and every response must be a
// valid plan, a best-effort budget-exhausted plan, a degraded cached
// plan, or an honest 429/503 with Retry-After — never a 500, never a
// bare rejection.
func TestLoadFaultyDeadline(t *testing.T) {
	srv, err := serve.New(faultyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Clients:  16,
		Requests: 64,
		Bodies:   faultyBodies(),
		Timeout:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	t.Logf("degraded: %+v budget_exhausted: %+v by_status: %+v", res.Degraded, res.BudgetExhausted, res.ByStatus)
	if res.Errors != 0 {
		t.Fatalf("%d client errors (hung request, 5xx, or rejection without Retry-After): %+v", res.Errors, res.ByStatus)
	}
	if res.Requests != 64 {
		t.Fatalf("recorded %d requests, want 64 (a hung request never records)", res.Requests)
	}
	for status := range res.ByStatus {
		switch status {
		case 200, 202, 429, 503:
		default:
			t.Fatalf("unexpected status %d in %+v", status, res.ByStatus)
		}
	}
	if res.BudgetExhausted.Count == 0 {
		t.Fatalf("no budget-exhausted best-effort plans served; 1e6-episode searches cannot finish in 2s: %+v", res.ByStatus)
	}
	st := srv.Status()
	if st.BudgetExhausted == 0 {
		t.Fatalf("daemon recorded no budget-exhausted completions: %+v", st)
	}
}

// driftConfig is the chaos configuration of the drift load gate:
// ATLAS drifts in one step, NNPACK ramps over 4 rounds, canaries cover
// every (layer, primitive) pair each tick, and healing is manual
// (NoHeal) so the phase boundaries are deterministic.
func driftConfig() serve.Config {
	return serve.Config{
		MaxInflight: 2,
		QueueDepth:  256,
		Faults: &profile.FaultConfig{
			Seed:            7,
			DriftStep:       []string{"ATLAS"},
			DriftRamp:       []string{"NNPACK"},
			DriftFactor:     3,
			DriftRampRounds: 4,
		},
		Health: &health.Config{Seed: 3, CanarySize: 1 << 20, NoHeal: true},
	}
}

// TestLoadDriftChaos is the drift acceptance gate. It primes a plan,
// drifts the environment until the canary pass quarantines the
// affected libraries, then fires 64 concurrent clients at the
// quarantined daemon: zero errors, and every answer a 200 marked
// revalidating, never a 500. It then triggers the self-healing
// re-optimization and requires the fresh plan to land.
func TestLoadDriftChaos(t *testing.T) {
	const clients, requests = 64, 256
	srv, err := serve.New(driftConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	prime := []byte(`{"network":"lenet5","mode":"cpu","episodes":300,"samples":3,"seed":1,"wait":true}`)
	if res, err := Run(ctx, Options{BaseURL: ts.URL, Clients: 1, Requests: 1, Bodies: [][]byte{prime}}); err != nil || res.Errors != 0 {
		t.Fatalf("prime request failed: %v %+v", err, res)
	}

	for i := 0; i < 3; i++ {
		srv.AdvanceDrift()
	}
	stats := srv.CanaryTick(ctx)
	if stats.Quarantined == 0 {
		t.Fatalf("canary pass confirmed no drift: %+v", stats)
	}

	res, err := Run(ctx, Options{
		BaseURL: ts.URL, Clients: clients, Requests: requests, Bodies: [][]byte{prime},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if res.Errors != 0 {
		t.Fatalf("%d client errors under quarantine: %+v", res.Errors, res.ByStatus)
	}
	if res.ByStatus[200] != requests {
		t.Fatalf("status histogram under quarantine: %+v, want %d x 200", res.ByStatus, requests)
	}
	if res.Revalidating.Count != requests {
		t.Fatalf("%d of %d responses marked revalidating; a quarantined plan must say so",
			res.Revalidating.Count, requests)
	}

	t0 := time.Now()
	if n := srv.HealNow(); n == 0 {
		t.Fatal("HealNow enqueued no re-optimization")
	}
	deadline := time.Now().Add(60 * time.Second)
	for srv.Status().Healed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("heal never landed: %+v", srv.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("heal landed in %v", time.Since(t0))

	after, err := Run(ctx, Options{BaseURL: ts.URL, Clients: 1, Requests: 1, Bodies: [][]byte{prime}})
	if err != nil {
		t.Fatal(err)
	}
	if after.Errors != 0 || after.Revalidating.Count != 0 {
		t.Fatalf("healed plan still served revalidating: %+v", after)
	}
}

// TestLoad64Clients is the load acceptance gate: 64 concurrent clients,
// 256 requests over 8 distinct jobs, zero errors, and sane percentile
// accounting — all against a real in-process daemon.
func TestLoad64Clients(t *testing.T) {
	srv, err := serve.New(serve.Config{MaxInflight: 4, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var bodies [][]byte
	for seed := 1; seed <= 8; seed++ {
		bodies = append(bodies, []byte(fmt.Sprintf(
			`{"network":"lenet5","mode":"cpu","episodes":300,"samples":3,"seed":%d,"wait":true}`, seed)))
	}
	res, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Clients:  64,
		Requests: 256,
		Bodies:   bodies,
		Timeout:  2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if res.Errors != 0 {
		t.Fatalf("%d client errors: %+v", res.Errors, res.ByStatus)
	}
	if res.Requests != 256 {
		t.Fatalf("recorded %d requests, want 256", res.Requests)
	}
	if res.ByStatus[200] != 256 {
		t.Fatalf("status histogram: %+v, want 256 x 200 (wait:true never queues a reply)", res.ByStatus)
	}
	if res.P50 <= 0 || res.P95 < res.P50 || res.P99 < res.P95 || res.Max < res.P99 {
		t.Fatalf("percentiles not monotone: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v", res.Throughput)
	}
	if st := srv.Status(); st.Rejected != 0 || st.Failed != 0 {
		t.Fatalf("daemon outcomes: %+v", st)
	}
}
