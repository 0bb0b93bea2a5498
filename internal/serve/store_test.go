package serve

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/searchplan"
	"repro/internal/store"
)

// corruptTail simulates a torn write: the file keeps its prefix but
// loses (mangled) trailing bytes, which must fail the stored CRC.
func corruptTail(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 {
		t.Fatalf("file %s too short to corrupt (%d bytes)", path, len(data))
	}
	for i := len(data) - 8; i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPlanStoreLastGoodRotation(t *testing.T) {
	ps, err := openPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "lenet5|tx2-like|cpu|latency|e200|s3|r1"
	if _, _, ok := ps.getPlan(key); ok {
		t.Fatal("empty store reported a plan")
	}
	v1 := []byte(`{"plan":"v1"}`)
	v2 := []byte(`{"plan":"v2"}`)
	if err := ps.putPlan(key, v1, planMeta{}); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := ps.getPlan(key); !ok || string(got) != string(v1) {
		t.Fatalf("after put v1: got %q ok=%v", got, ok)
	}
	if err := ps.putPlan(key, v2, planMeta{}); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := ps.getPlan(key); string(got) != string(v2) {
		t.Fatalf("after put v2: got %q", got)
	}

	// A torn current generation falls back to the previous one.
	corruptTail(t, ps.planPath(key))
	got, _, ok := ps.getPlan(key)
	if !ok {
		t.Fatal("torn current generation should fall back to previous, got miss")
	}
	if string(got) != string(v1) {
		t.Fatalf("fallback: got %q, want previous generation %q", got, v1)
	}

	// Both generations torn: a miss, never an error or garbage.
	corruptTail(t, store.PreviousPath(ps.planPath(key)))
	if _, _, ok := ps.getPlan(key); ok {
		t.Fatal("fully corrupted store served a plan")
	}

	// A stored plan under a different key must not satisfy this key
	// (hash-collision / misplaced-file guard).
	if err := ps.putPlan("other-key", v1, planMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(ps.planPath("other-key"), ps.planPath("stolen-key")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ps.getPlan("stolen-key"); ok {
		t.Fatal("plan stored under a different key was served")
	}
}

// testTable profiles lenet5 cheaply for snapshot round-trips.
func testTable(t *testing.T) (*jobSpec, *lut.Table) {
	t.Helper()
	req := OptimizeRequest{Network: "lenet5", Mode: "cpu", Episodes: 300, Samples: 3}
	spec, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	net := models.MustBuild(spec.Network)
	board, _ := platform.Preset(spec.Platform)
	tab, _, err := defaultProfile(context.Background(), net, board, spec.Mode, spec.Samples)
	if err != nil {
		t.Fatal(err)
	}
	return spec, tab
}

func TestJobRecordLifecycle(t *testing.T) {
	ps, err := openPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, tab := testTable(t)
	key := spec.key()

	// Admission record: no snapshot yet, but the request round-trips
	// through the pending scan.
	if err := ps.saveJobRecord(spec, nil); err != nil {
		t.Fatal(err)
	}
	if snap := ps.loadSnapshot(key, tab); snap != nil {
		t.Fatal("admission record has no snapshot, loadSnapshot should return nil")
	}
	reqs, skipped, err := ps.pendingJobs()
	if err != nil || skipped != 0 || len(reqs) != 1 {
		t.Fatalf("pendingJobs: reqs=%d skipped=%d err=%v", len(reqs), skipped, err)
	}
	spec2, err := reqs[0].spec()
	if err != nil || spec2.key() != key {
		t.Fatalf("re-admitted request key %q (err %v), want %q", spec2.key(), err, key)
	}

	// Two checkpoint generations, then a torn current: loadSnapshot
	// must fall back to the previous checkpoint, not start from zero.
	var snaps [][]byte
	_, err = core.SearchCheckpointedPlanned(searchplan.Compile(tab), core.Config{Episodes: spec.Episodes, Seed: spec.Seed},
		core.DurableOptions{Every: 100, Save: func(s *core.Snapshot) error {
			p, err := s.Marshal()
			if err != nil {
				return err
			}
			snaps = append(snaps, p)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("need >= 2 checkpoints, got %d", len(snaps))
	}
	if err := ps.saveJobRecord(spec, snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := ps.saveJobRecord(spec, snaps[1]); err != nil {
		t.Fatal(err)
	}
	snap := ps.loadSnapshot(key, tab)
	if snap == nil {
		t.Fatal("loadSnapshot returned nil for a valid record")
	}
	if snap.Checkpoint.Episode != 200 {
		t.Fatalf("newest snapshot episode %d, want 200", snap.Checkpoint.Episode)
	}
	corruptTail(t, ps.jobPath(key))
	snap = ps.loadSnapshot(key, tab)
	if snap == nil {
		t.Fatal("torn current checkpoint should fall back to previous, got nil")
	}
	if snap.Checkpoint.Episode != 100 {
		t.Fatalf("fallback snapshot episode %d, want 100", snap.Checkpoint.Episode)
	}

	// Drop removes both generations; the pending scan is empty again.
	ps.dropJobRecord(key)
	reqs, skipped, err = ps.pendingJobs()
	if err != nil || skipped != 0 || len(reqs) != 0 {
		t.Fatalf("after drop: reqs=%d skipped=%d err=%v", len(reqs), skipped, err)
	}
}

// TestPendingJobsSkipsGarbage: a mangled record (both generations
// unreadable) is counted and skipped, never fatal — the daemon must
// come up over a damaged store.
func TestPendingJobsSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	ps, err := openPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := testTable(t)
	if err := ps.saveJobRecord(spec, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, jobsSubdir, "garbage.qsd"), []byte("not an envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	reqs, skipped, err := ps.pendingJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || skipped != 1 {
		t.Fatalf("got %d requests, %d skipped; want 1 and 1", len(reqs), skipped)
	}
}

// TestStoreHitServesNormalisedPlan: a plan file whose payload is
// indented and holds unescaped '&' (hand-edited, or written by another
// encoder) is served compact and escaped, the bytes json.Encoder made
// of it when replies re-encoded the plan, although hits now splice the
// plan in verbatim.
func TestStoreHitServesNormalisedPlan(t *testing.T) {
	dir := t.TempDir()
	ps, err := openPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := fastBody(5)
	_, spec, err := decodeOptimizeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	key := spec.key()
	envelope := "{\n  \"key\": " + strconv.Quote(key) + ",\n  \"plan\": {\n    \"network\": \"lenet5\",\n    \"bsl_library\": \"R&D <x>\",\n    \"assignment\": [ 0, 1 ]\n  }\n}\n"
	if err := store.SaveRotating(ps.planPath(key), []byte(envelope)); err != nil {
		t.Fatal(err)
	}
	const want = `{"network":"lenet5","bsl_library":"R\u0026D \u003cx\u003e","assignment":[0,1]}`
	if got, _, ok := ps.getPlan(key); !ok || string(got) != want {
		t.Fatalf("getPlan: got %q ok=%v, want %q", got, ok, want)
	}

	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 4, PlanStore: dir})
	code, _, payload := postOptimize(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, payload)
	}
	wantReply := `{"state":"done","cached":true,"plan":` + want + "}\n"
	if string(payload) != wantReply {
		t.Fatalf("store hit reply\n got: %q\nwant: %q", payload, wantReply)
	}
	if st := srv.Status(); st.Searches != 0 {
		t.Fatalf("store hit ran %d searches", st.Searches)
	}
}
