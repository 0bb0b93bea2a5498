package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// encoderReply is the oracle for writeResponse: the bytes
// json.NewEncoder writes for resp, trailing newline included (nothing
// when encoding fails).
func encoderReply(resp OptimizeResponse) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes()
}

// checkReply asserts that writeResponse writes exactly the oracle's
// bytes, with the status code and content type writeJSON sets.
func checkReply(t *testing.T, resp OptimizeResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeResponse(rec, http.StatusAccepted, resp)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d, want %d", rec.Code, http.StatusAccepted)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if want := encoderReply(resp); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("reply bytes differ from the encoder's\n got: %q\nwant: %q", rec.Body.Bytes(), want)
	}
	if cl, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); cl != want {
		t.Fatalf("Content-Length %q, want %q", cl, want)
	}
}

// TestUndrainedHitsKeepTheirConnection: a client that decodes each
// googlenet cache hit (a reply far over net/http's 2 KB chunking
// threshold) with json.Decoder and closes the body without reading the
// trailing newline still reuses one connection for every request.
func TestUndrainedHitsKeepTheirConnection(t *testing.T) {
	srv, err := New(Config{MaxInflight: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(0)
	})
	client := ts.Client()
	const body = `{"network":"googlenet","mode":"cpu","episodes":50,"samples":1,"seed":3,"wait":true}`
	for i := 0; i < 10; i++ {
		resp, err := client.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var or OptimizeResponse
		err = json.NewDecoder(resp.Body).Decode(&or)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(or.Plan) <= 2048 {
			t.Fatalf("request %d: status %d, %d plan bytes, err %v", i, resp.StatusCode, len(or.Plan), err)
		}
		if i > 0 && !or.Cached {
			t.Fatalf("request %d was not a cache hit", i)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("10 requests opened %d connections, want 1", n)
	}
}

// awkwardPlan is a plan as exec stores it (json.Marshal output) whose
// strings hold the characters the encoder escapes.
func awkwardPlan(t testing.TB) json.RawMessage {
	p, err := json.Marshal(PlanResponse{
		Network:    "lenet5 <b>&amp;</b>",
		BSLLibrary: "lib\u2028line\u2029para \"quoted\" \\ \t",
		Assignment: []int{0, 3, 1},
		Choices:    []PlanChoice{{Layer: "conv<1>", Kind: "conv&", Seconds: 1.5e-4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWriteResponseBytes checks every combination of the envelope's
// fields, each with and without a plan, against the encoder's bytes.
// The fields come from OptimizeResponse itself, so a field added later
// is covered (or fails here for want of a sample value).
func TestWriteResponseBytes(t *testing.T) {
	sample := map[reflect.Kind]any{
		reflect.String: "a<b>&c\u2028\"d\"",
		reflect.Bool:   true,
		reflect.Int64:  int64(7),
		reflect.Ptr:    &Event{State: StateRunning, Episode: 40, Total: 300, BestSeconds: 2.5e-3},
	}
	typ := reflect.TypeOf(OptimizeResponse{})
	var fields []int
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Plan" {
			continue
		}
		if _, ok := sample[f.Type.Kind()]; !ok {
			t.Fatalf("no sample value for field %s of kind %s", f.Name, f.Type.Kind())
		}
		fields = append(fields, i)
	}
	plans := []json.RawMessage{nil, awkwardPlan(t), json.RawMessage(`{}`)}
	for set := 0; set < 1<<len(fields); set++ {
		for _, plan := range plans {
			var resp OptimizeResponse
			v := reflect.ValueOf(&resp).Elem()
			for bit, i := range fields {
				if set&(1<<bit) != 0 {
					v.Field(i).Set(reflect.ValueOf(sample[typ.Field(i).Type.Kind()]))
				}
			}
			resp.Plan = plan
			checkReply(t, resp)
		}
	}
}

// FuzzReplyBytes checks writeResponse against the encoder over fuzzed
// envelope fields and plan strings.
func FuzzReplyBytes(f *testing.F) {
	f.Add("j1", StateDone, true, false, true, 3, 1.5e-3, "", int64(0), int64(0), false, true, "lenet5")
	f.Add("", StateFailed, false, true, false, 0, 0.0, "boom <&>\u2028", int64(4), int64(2), true, false, "")
	f.Add("\xff\"plan\":0", "\"plan\":0", false, false, true, -1, -0.0, "\"plan\":0}", int64(-1), int64(1<<62), true, true, "\"plan\":0")
	f.Fuzz(func(t *testing.T, id, state string, cached, degraded, progress bool, episode int, best float64,
		errMsg string, epoch, age int64, revalidating, withPlan bool, network string) {
		resp := OptimizeResponse{
			ID: id, State: state, Cached: cached, Degraded: degraded, Error: errMsg,
			PlanEpoch: epoch, Age: age, Revalidating: revalidating,
		}
		if progress {
			resp.Progress = &Event{State: state, Episode: episode, Total: 300, BestSeconds: best}
		}
		if withPlan {
			plan, err := json.Marshal(PlanResponse{Network: network, Choices: []PlanChoice{{Layer: id, Seconds: best}}})
			if err != nil {
				return // a non-finite time never reaches a stored plan
			}
			resp.Plan = plan
		}
		checkReply(t, resp)
	})
}
