package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/lut"
	"repro/internal/store"
)

// planStore is the daemon's durable state, an adapter over
// internal/store's atomic checksummed writes and last-good rotation:
//
//	<dir>/plans/<h>.qsd  finished plans, one rotating snapshot per
//	                     request key — a torn current generation falls
//	                     back to the previous one, and because plans
//	                     are deterministic per key, any generation
//	                     serves identical bytes
//	<dir>/jobs/<h>.qsd   admitted-but-unfinished jobs: the normalized
//	                     request plus (after the first checkpoint
//	                     cadence) the search snapshot — the record a
//	                     restarted server scans to resume work a crash
//	                     interrupted
//
// File names are a content hash of the request key, so keys of any
// shape map to safe path components.
type planStore struct {
	dir string
}

const (
	plansSubdir = "plans"
	jobsSubdir  = "jobs"
)

// openPlanStore creates (or reopens) the store layout under dir.
func openPlanStore(dir string) (*planStore, error) {
	for _, sub := range []string{plansSubdir, jobsSubdir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: opening plan store: %w", err)
		}
	}
	return &planStore{dir: dir}, nil
}

// keyFile maps a request key to its snapshot file name.
func keyFile(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:12]) + ".qsd"
}

func (s *planStore) planPath(key string) string {
	return filepath.Join(s.dir, plansSubdir, keyFile(key))
}

func (s *planStore) jobPath(key string) string {
	return filepath.Join(s.dir, jobsSubdir, keyFile(key))
}

// planMeta is a durable plan's health lineage: the profile epoch its
// LUT was measured under, the epoch of the plan it replaced (heal
// lineage), whether the replacing search regressed and the parent
// assignment was kept (rolled back), and the per-library measurement
// fingerprints of the table that priced it. All fields are omitempty,
// so pre-health plans (and epoch-zero plans) round-trip unchanged.
type planMeta struct {
	Epoch        int64                `json:"epoch,omitempty"`
	ParentEpoch  int64                `json:"parent_epoch,omitempty"`
	RolledBack   bool                 `json:"rolled_back,omitempty"`
	Fingerprints []health.Fingerprint `json:"fingerprints,omitempty"`
}

// planEnvelope is the on-disk form of a finished plan. The key is
// stored alongside the payload so a hash collision (or a manually
// misplaced file) is detected instead of serving the wrong plan. The
// embedded health metadata travels with the plan across restarts; the
// plan bytes themselves stay exactly the bytes served.
type planEnvelope struct {
	Key  string          `json:"key"`
	Plan json.RawMessage `json:"plan"`
	planMeta
}

// jobRecord is the on-disk form of an admitted job: the normalized
// request (enough to re-admit it after a crash) plus, once the search
// has crossed a checkpoint boundary, the durable search snapshot.
type jobRecord struct {
	Key      string          `json:"key"`
	Request  OptimizeRequest `json:"request"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// putPlan durably persists the marshaled plan for key with last-good
// rotation, alongside its health lineage metadata.
func (s *planStore) putPlan(key string, plan []byte, meta planMeta) error {
	payload, err := json.Marshal(planEnvelope{Key: key, Plan: plan, planMeta: meta})
	if err != nil {
		return err
	}
	return store.SaveRotating(s.planPath(key), payload)
}

// getPlan loads the newest valid stored plan for key. A torn or
// bit-flipped current generation falls back to the previous one; when
// no valid generation exists the lookup is a miss, never an error —
// the plan is deterministic, so the server just recomputes it. The
// plan comes back compact and HTML-escaped, as json.Marshal writes it,
// whatever whitespace the file holds: replies splice plan bytes in
// verbatim (writeResponse), so a hand-edited file still serves the
// bytes the encoder would.
func (s *planStore) getPlan(key string) ([]byte, planMeta, bool) {
	payload, _, _, err := store.LoadRotating(s.planPath(key), func(p []byte) error {
		var env planEnvelope
		if err := json.Unmarshal(p, &env); err != nil {
			return err
		}
		if env.Key != key {
			return fmt.Errorf("stored plan is for key %q, want %q", env.Key, key)
		}
		if len(env.Plan) == 0 {
			return fmt.Errorf("stored plan is empty")
		}
		return nil
	})
	if err != nil {
		return nil, planMeta{}, false
	}
	var env planEnvelope
	if json.Unmarshal(payload, &env) != nil {
		return nil, planMeta{}, false
	}
	plan, err := json.Marshal(env.Plan)
	if err != nil {
		return nil, planMeta{}, false
	}
	return plan, env.planMeta, true
}

// saveJobRecord durably records an admitted job; snapshot may be nil
// (admission time) or a marshaled core.Snapshot (checkpoint cadence).
// Successive saves rotate, so the previous checkpoint survives a torn
// write of the current one.
func (s *planStore) saveJobRecord(spec *jobSpec, snapshot []byte) error {
	payload, err := json.Marshal(jobRecord{Key: spec.key(), Request: spec.request(), Snapshot: snapshot})
	if err != nil {
		return err
	}
	return store.SaveRotating(s.jobPath(spec.key()), payload)
}

// dropJobRecord removes both generations of a finished job's record.
func (s *planStore) dropJobRecord(key string) {
	p := s.jobPath(key)
	os.Remove(p)
	os.Remove(store.PreviousPath(p))
}

// loadSnapshot returns the newest job-record snapshot for key that
// validates against tab, or nil when no generation carries a usable
// snapshot (fresh admission record, torn files, schema drift) — the
// search then starts from episode zero, which is always correct, just
// slower. A current generation whose snapshot fails validation falls
// back to the previous rotation, so a write torn by a crash costs at
// most one checkpoint cadence of recomputation.
func (s *planStore) loadSnapshot(key string, tab *lut.Table) *core.Snapshot {
	payload, _, _, err := store.LoadRotating(s.jobPath(key), func(p []byte) error {
		rec, err := decodeJobRecord(p, key)
		if err != nil {
			return err
		}
		if len(rec.Snapshot) == 0 {
			// A snapshot-less admission record is a valid generation:
			// it resumes as a fresh search.
			return nil
		}
		_, err = core.LoadSnapshot(rec.Snapshot, tab)
		return err
	})
	if err != nil {
		return nil
	}
	rec, err := decodeJobRecord(payload, key)
	if err != nil || len(rec.Snapshot) == 0 {
		return nil
	}
	snap, err := core.LoadSnapshot(rec.Snapshot, tab)
	if err != nil {
		return nil
	}
	return snap
}

// planKeys scans the stored plans and returns their request keys
// ordered oldest-first by file modification time (newest last), so a
// fold that keeps the last writer per family ends up with the newest
// plan. Unreadable entries are skipped — the scan rebuilds a cache,
// not a source of truth.
func (s *planStore) planKeys() []string {
	plansDir := filepath.Join(s.dir, plansSubdir)
	entries, err := os.ReadDir(plansDir)
	if err != nil {
		return nil
	}
	type keyed struct {
		key string
		mod int64
	}
	var found []keyed
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		base := name
		switch {
		case strings.Contains(name, ".qsd.tmp"):
			continue
		case strings.HasSuffix(name, ".qsd.prev"):
			base = strings.TrimSuffix(name, ".prev")
		case strings.HasSuffix(name, ".qsd"):
		default:
			continue
		}
		if seen[base] {
			continue
		}
		seen[base] = true
		path := filepath.Join(plansDir, base)
		payload, _, _, lerr := store.LoadRotating(path, func(p []byte) error {
			var env planEnvelope
			if err := json.Unmarshal(p, &env); err != nil {
				return err
			}
			if env.Key == "" || len(env.Plan) == 0 {
				return fmt.Errorf("empty plan envelope")
			}
			return nil
		})
		if lerr != nil {
			continue
		}
		var env planEnvelope
		if json.Unmarshal(payload, &env) != nil {
			continue
		}
		var mod int64
		if fi, serr := os.Stat(path); serr == nil {
			mod = fi.ModTime().UnixNano()
		} else if fi, serr := os.Stat(store.PreviousPath(path)); serr == nil {
			mod = fi.ModTime().UnixNano()
		}
		found = append(found, keyed{key: env.Key, mod: mod})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mod != found[j].mod {
			return found[i].mod < found[j].mod
		}
		return found[i].key < found[j].key
	})
	keys := make([]string, len(found))
	for i, k := range found {
		keys[i] = k.key
	}
	return keys
}

// decodeJobRecord unmarshals and key-checks one job record payload.
func decodeJobRecord(p []byte, key string) (*jobRecord, error) {
	var rec jobRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return nil, err
	}
	if key != "" && rec.Key != key {
		return nil, fmt.Errorf("job record is for key %q, want %q", rec.Key, key)
	}
	return &rec, nil
}

// pendingJobs scans the job records left by a previous process —
// admitted jobs a crash or hard stop interrupted — and returns their
// normalized requests for re-admission. Records whose every generation
// is unreadable are skipped (and counted), never fatal: the daemon
// must come up even over a mangled store.
func (s *planStore) pendingJobs() (reqs []OptimizeRequest, skipped int, err error) {
	jobsDir := filepath.Join(s.dir, jobsSubdir)
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: scanning job records: %w", err)
	}
	// A SIGKILL inside SaveRotating can leave a record that exists
	// only as its .prev rotation (current already rotated away, the
	// replacement not yet renamed into place), so the scan derives
	// record identities from both generations and lets LoadRotating
	// pick the newest valid one.
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		base := name
		switch {
		case strings.Contains(name, ".qsd.tmp"):
			// Litter from a write the crash tore mid-flight; the
			// rotation generations carry the recoverable state.
			os.Remove(filepath.Join(jobsDir, name))
			continue
		case strings.HasSuffix(name, ".qsd.prev"):
			base = strings.TrimSuffix(name, ".prev")
		case strings.HasSuffix(name, ".qsd"):
		default:
			continue
		}
		if seen[base] {
			continue
		}
		seen[base] = true
		path := filepath.Join(jobsDir, base)
		payload, _, _, lerr := store.LoadRotating(path, func(p []byte) error {
			_, derr := decodeJobRecord(p, "")
			return derr
		})
		if lerr != nil {
			skipped++
			continue
		}
		rec, derr := decodeJobRecord(payload, "")
		if derr != nil {
			skipped++
			continue
		}
		reqs = append(reqs, rec.Request)
	}
	return reqs, skipped, nil
}
