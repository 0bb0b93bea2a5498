package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
)

// waitFor polls cond until it holds or the deadline passes — the
// harness-wide substitute for sleeps.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// countingProfile wraps the simulator profiler and counts invocations
// per LUT key — the probe that proves profiling is single-flighted.
type countingProfile struct {
	mu    sync.Mutex
	calls map[string]int
	gate  chan struct{} // non-nil: block until closed (or ctx done)
}

func newCountingProfile(gate chan struct{}) *countingProfile {
	return &countingProfile{calls: map[string]int{}, gate: gate}
}

func (c *countingProfile) fn() ProfileFunc {
	return func(ctx context.Context, net *nn.Network, board *platform.Platform, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		c.mu.Lock()
		c.calls[fmt.Sprintf("%s|%d|%d", net.Name, int(mode), samples)]++
		c.mu.Unlock()
		if c.gate != nil {
			select {
			case <-c.gate:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		return defaultProfile(ctx, net, board, mode, samples)
	}
}

func (c *countingProfile) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

func (c *countingProfile) distinct() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

// newTestServer starts a daemon and its HTTP front end on an ephemeral
// port, both torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(0)
	})
	return srv, ts
}

func postOptimize(t *testing.T, base, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, payload
}

// fastBody is a request cheap enough for handler tests.
func fastBody(seed int) string {
	return fmt.Sprintf(`{"network":"lenet5","mode":"cpu","episodes":200,"samples":3,"seed":%d,"wait":true}`, seed)
}

// TestHandlerErrors is the table-driven pass over every HTTP error
// path: malformed and invalid bodies are 400s with a JSON error, and
// unknown jobs are 404s.
func TestHandlerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 4})
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"malformed json", "POST", "/v1/optimize", `{"network":`, http.StatusBadRequest, "decoding request"},
		{"unknown network", "POST", "/v1/optimize", `{"network":"nope"}`, http.StatusBadRequest, "unknown network"},
		{"negative episodes", "POST", "/v1/optimize", `{"network":"lenet5","episodes":-1}`, http.StatusBadRequest, "episodes must be positive"},
		{"fractional samples", "POST", "/v1/optimize", `{"network":"lenet5","samples":2.5}`, http.StatusBadRequest, "samples must be an integer"},
		{"overflow episodes", "POST", "/v1/optimize", `{"network":"lenet5","episodes":1e99}`, http.StatusBadRequest, "episodes exceeds the limit"},
		{"unknown job", "GET", "/v1/jobs/j-999999", "", http.StatusNotFound, "unknown job"},
		{"unknown job events", "GET", "/v1/jobs/j-999999/events", "", http.StatusNotFound, "unknown job"},
		{"method not allowed", "GET", "/v1/optimize", "", http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			payload, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.wantCode, payload)
			}
			if tc.wantErr == "" {
				return
			}
			var e errorJSON
			if err := json.Unmarshal(payload, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", payload)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Fatalf("error %q does not contain %q", e.Error, tc.wantErr)
			}
		})
	}
}

// TestAdmissionControl pins the bounded queue: with one worker parked
// on a gated profile and a one-slot queue, the third distinct request
// is rejected with 429 + Retry-After, and releasing the gate drains
// everything to completion.
func TestAdmissionControl(t *testing.T) {
	gate := make(chan struct{})
	cp := newCountingProfile(gate)
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 1, Profile: cp.fn()})

	// Distinct samples per request -> distinct LUT keys, so the gate
	// holds each job independently.
	code, _, payload := postOptimize(t, ts.URL, `{"network":"lenet5","mode":"cpu","episodes":200,"samples":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: status %d (%s)", code, payload)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Status().Inflight == 1 }, "worker to claim the first job")

	code, _, payload = postOptimize(t, ts.URL, `{"network":"lenet5","mode":"cpu","episodes":200,"samples":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("second POST (queued): status %d (%s)", code, payload)
	}
	code, hdr, payload := postOptimize(t, ts.URL, `{"network":"lenet5","mode":"cpu","episodes":200,"samples":5}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third POST: status %d, want 429 (%s)", code, payload)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 reply is missing Retry-After")
	}
	if st := srv.Status(); st.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", st.Rejected)
	}

	close(gate)
	waitFor(t, 10*time.Second, func() bool { return srv.Status().Completed == 2 }, "gated jobs to finish")
	if st := srv.Status(); st.Failed != 0 || st.Interrupted != 0 {
		t.Fatalf("outcomes after release: %+v", st)
	}
}

// TestHealthzAndStatusz: healthz flips to 503 when draining, and
// statusz is well-formed JSON with the configured bounds.
func TestHealthzAndStatusz(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 2, QueueDepth: 7})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	resp.Body.Close()
	if st.MaxInflight != 2 || st.QueueDepth != 7 || st.Draining {
		t.Fatalf("statusz: %+v", st)
	}

	srv.Drain(time.Second)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	code, _, _ := postOptimize(t, ts.URL, fastBody(1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %d, want 503", code)
	}
}

// TestJobLifecycleAndEvents drives one job end to end through the
// polling and SSE endpoints: 202 envelope, progress events at the
// checkpoint cadence, terminal done event, and a final poll carrying
// the plan.
func TestJobLifecycleAndEvents(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 4, SnapshotEvery: 50})
	code, _, payload := postOptimize(t, ts.URL, `{"network":"lenet5","mode":"cpu","episodes":200,"samples":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d (%s)", code, payload)
	}
	var acc OptimizeResponse
	if err := json.Unmarshal(payload, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" || (acc.State != StateQueued && acc.State != StateRunning) {
		t.Fatalf("202 envelope: %+v", acc)
	}

	// The SSE stream must end with a done event and include cadence
	// progress in between.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // server closes the stream at the terminal event
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for _, line := range strings.Split(string(raw), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want running + cadence + done", len(events))
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.Episode != 200 {
		t.Fatalf("terminal event: %+v", last)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Episode < events[i-1].Episode {
			t.Fatalf("events out of order: %+v", events)
		}
	}

	waitFor(t, 5*time.Second, func() bool { return srv.Status().Completed == 1 }, "job completion")
	resp, err = http.Get(ts.URL + "/v1/jobs/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	var final OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.State != StateDone || len(final.Plan) == 0 {
		t.Fatalf("final poll: state=%q plan=%d bytes", final.State, len(final.Plan))
	}
}
