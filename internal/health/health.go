// Package health implements the plan-health subsystem: measurement
// fingerprints, drift detection over canary re-measurements, and the
// per-(platform, library) quarantine state machine that drives the
// serve daemon's self-healing re-optimization.
//
// QS-DNN's premise is that measured primitive times are ground truth,
// but on embedded targets ground truth drifts: thermal throttling,
// DVFS and co-located load silently invalidate a LUT profiled minutes
// ago. This package decides *when* a profiled table stopped being
// true. Every decision is a pure function of measured values and
// epoch counters — no wall clock — so chaos tests that inject
// deterministic drift stay byte-reproducible.
//
// The state machine per (platform, library):
//
//	fresh ──drifted entry──▶ suspect ──confirmed──▶ quarantined
//	  ▲                        │                        │
//	  └────clean canary────────┘            heal job completes
//	                                                    │
//	                                       ┌────────────┴───────────┐
//	                                    healed                rolled-back
//	                                 (new plan won)      (parent plan kept)
//
// Healed and rolled-back pairs re-enter the detector: a later drift
// moves them back to suspect.
package health

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/lut"
	"repro/internal/primitives"
	"repro/internal/stats"
)

// Fingerprint summarizes one (platform, library)'s measured latencies
// in a profiled table: the median and the median absolute deviation
// of its (layer, primitive) entries — the same two robust statistics
// profile.Robust's aggregation is built on. The MAD scales the drift
// band: a fresh canary estimate farther than Band normalized MADs
// from its stored baseline is flagged as drifted.
type Fingerprint struct {
	Platform string `json:"platform"`
	Library  string `json:"library"`
	// MedianSec and MADSec are seconds over the library's measured
	// (layer, primitive) entries.
	MedianSec float64 `json:"median_sec"`
	MADSec    float64 `json:"mad_sec"`
	// Entries is how many measured cells the fingerprint covers.
	Entries int `json:"entries"`
}

// Fingerprints computes the per-library fingerprints of a profiled
// table, sorted by library name. Libraries with no measured entry
// (never a candidate, or fully dropped by degradation) are absent.
func Fingerprints(platform string, tab *lut.Table) []Fingerprint {
	byLib := map[string][]float64{}
	for i := 1; i < tab.NumLayers(); i++ {
		for _, id := range tab.Candidates(i) {
			v := tab.Time(i, id)
			if math.IsInf(v, 1) {
				continue
			}
			lib := primitives.ByID(id).Lib.String()
			byLib[lib] = append(byLib[lib], v)
		}
	}
	libs := make([]string, 0, len(byLib))
	for lib := range byLib {
		libs = append(libs, lib)
	}
	sort.Strings(libs)
	out := make([]Fingerprint, 0, len(libs))
	for _, lib := range libs {
		vals := byLib[lib]
		sort.Float64s(vals)
		out = append(out, Fingerprint{
			Platform: platform, Library: lib,
			MedianSec: stats.Median(vals), MADSec: stats.MAD(vals), Entries: len(vals),
		})
	}
	return out
}

// State is one (platform, library) pair's position in the plan-health
// state machine.
type State int

const (
	// Fresh means no unexplained deviation has been observed.
	Fresh State = iota
	// Suspect means at least one canary entry drifted but the
	// confirmation threshold has not been reached.
	Suspect
	// Quarantined means drift is confirmed: dependent cached plans are
	// stale and served flagged revalidating until a heal completes.
	Quarantined
	// Healed means a re-optimization against a fresh table replaced
	// the dependent plans.
	Healed
	// RolledBack means the re-searched plan regressed against the
	// fresh table, so the parent plan (re-priced) was kept.
	RolledBack
)

var stateNames = [...]string{"fresh", "suspect", "quarantined", "healed", "rolled-back"}

// String returns the state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Status is one pair's externally visible health, as reported in
// /statusz.
type Status struct {
	Platform string `json:"platform"`
	Library  string `json:"library"`
	State    string `json:"state"`
	// DriftedEntries counts canary entries flagged since the pair was
	// last fresh or healed.
	DriftedEntries int `json:"drifted_entries,omitempty"`
	// QuarantinedEpoch / HealedEpoch are the profile epochs of the
	// last quarantine and heal transitions.
	QuarantinedEpoch int64 `json:"quarantined_epoch,omitempty"`
	HealedEpoch      int64 `json:"healed_epoch,omitempty"`
}

// TickStats summarizes one canary round.
type TickStats struct {
	// Measured counts canary re-measurements attempted this round.
	Measured int `json:"measured"`
	// Drifted counts entries whose fresh estimate left the MAD band.
	Drifted int `json:"drifted"`
	// Quarantined counts (platform, library) pairs newly confirmed
	// this round.
	Quarantined int `json:"quarantined"`
	// Recovered counts previously dropped entries that measured
	// successfully again (breaker-recovery probes).
	Recovered int `json:"recovered"`
}

// Config tunes the plan-health subsystem. The zero value selects
// every default, so a nil-config server still has sane health
// machinery (manual canary ticks only).
type Config struct {
	// Seed drives the canary rotation's starting offset.
	Seed int64
	// CanarySize is how many (layer, primitive) entries each LUT
	// re-measures per canary tick; <= 0 selects 4.
	CanarySize int
	// Band is the drift band in normalized MADs: a fresh estimate
	// farther than Band * (stats.MADSigma * MAD) from its baseline is
	// drifted; <= 0 selects 4.
	Band float64
	// Confirm is how many drifted entries confirm a (platform,
	// library) quarantine; <= 0 selects 2.
	Confirm int
	// PlanTTL, in profile epochs, marks plans whose LUT has advanced
	// PlanTTL or more epochs since they were optimized as
	// revalidating; 0 disables.
	PlanTTL int64
	// NoHeal disables the self-healing re-optimization: drift is
	// still detected and quarantined (and visible in /statusz), but
	// stale plans are only refreshed by explicit heals.
	NoHeal bool
	// Interval is the wall-clock cadence of the background canary
	// loop; 0 runs no loop (ticks are driven explicitly). The
	// interval only schedules work — every health decision is
	// epoch-based.
	Interval time.Duration
}

// Size returns the effective canary subset size.
func (c *Config) Size() int {
	if c == nil || c.CanarySize <= 0 {
		return 4
	}
	return c.CanarySize
}

// BandWidth returns the effective drift band in normalized MADs.
func (c *Config) BandWidth() float64 {
	if c == nil || c.Band <= 0 {
		return 4
	}
	return c.Band
}

// ConfirmCount returns the effective quarantine confirmation
// threshold.
func (c *Config) ConfirmCount() int {
	if c == nil || c.Confirm <= 0 {
		return 2
	}
	return c.Confirm
}

// Drifted reports whether a fresh robust estimate falls outside the
// MAD-scaled band of its stored baseline. mad is the library
// fingerprint's raw MAD; stats.MADSigma scales it to a Gaussian sigma
// estimate (the same scaling the robust aggregation uses). A floor of
// 2% of the baseline guards near-zero MADs — deterministic simulated
// sources reproduce baselines exactly, so the floor never masks real
// drift, only numeric dust.
func (c *Config) Drifted(fresh, baseline, mad float64) bool {
	scale := stats.MADSigma * mad
	if floor := 0.02 * baseline; scale < floor {
		scale = floor
	}
	if scale <= 0 {
		scale = 1e-12
	}
	return math.Abs(fresh-baseline) > c.BandWidth()*scale
}

// CanaryIndices selects the rotating canary subset for one tick:
// k deterministic indices into an n-entry list, chosen so successive
// rounds sweep the whole list (every entry is re-measured within
// ceil(n/k) rounds) from a seeded starting offset. No randomness at
// tick time — the schedule is a pure function of (seed, round).
func CanaryIndices(seed, round int64, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	start := int(hash01(seed, round) * float64(n))
	out := make([]int, k)
	for j := range out {
		out[j] = (start + int(round%int64(n))*k + j) % n
	}
	return out
}

// hash01 maps (seed, round) to a deterministic uniform value in
// [0, 1): the Unit of the key "<seed>|canary|<round>", the key hash
// profile's seeded schedules use.
func hash01(seed, round int64) float64 {
	return stats.NewKey().Int(seed).Str("|canary|").Int(round).Unit()
}

// Monitor is the quarantine state machine plus the global profile
// epoch counter. Safe for concurrent use.
type Monitor struct {
	confirm int

	mu    sync.Mutex
	epoch int64
	pairs map[pairKey]*pairState
}

type pairKey struct{ platform, library string }

type pairState struct {
	state     State
	drifted   int
	quarEpoch int64
	healEpoch int64
}

// NewMonitor returns a monitor confirming quarantine after confirm
// drifted entries (<= 0 selects 2).
func NewMonitor(confirm int) *Monitor {
	if confirm <= 0 {
		confirm = 2
	}
	return &Monitor{confirm: confirm, pairs: map[pairKey]*pairState{}}
}

// Epoch returns the current profile epoch.
func (m *Monitor) Epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// NextEpoch advances and returns the profile epoch — called once per
// re-profiled LUT, so plan ages count re-profiles, not seconds.
func (m *Monitor) NextEpoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	return m.epoch
}

func (m *Monitor) pair(platform, library string) *pairState {
	k := pairKey{platform, library}
	p := m.pairs[k]
	if p == nil {
		p = &pairState{}
		m.pairs[k] = p
	}
	return p
}

// NoteDrift records n freshly drifted canary entries for (platform,
// library) and reports whether this note confirmed a new quarantine.
// A healed (or rolled-back) pair that drifts again re-enters suspect.
func (m *Monitor) NoteDrift(platform, library string, n int) bool {
	if n <= 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pair(platform, library)
	switch p.state {
	case Quarantined:
		p.drifted += n
		return false
	case Healed, RolledBack:
		p.state, p.drifted = Suspect, 0
	case Fresh:
		p.state = Suspect
	}
	p.drifted += n
	if p.drifted >= m.confirm {
		p.state = Quarantined
		p.quarEpoch = m.epoch
		return true
	}
	return false
}

// NoteClean records a canary round where every re-measured entry of
// (platform, library) stayed inside the band: a suspect pair returns
// to fresh (the deviation did not persist).
func (m *Monitor) NoteClean(platform, library string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.pairs[pairKey{platform, library}]; p != nil && p.state == Suspect {
		p.state, p.drifted = Fresh, 0
	}
}

// MarkHealed moves a quarantined pair to healed (or rolled-back when
// the re-searched plan regressed and the parent was kept).
func (m *Monitor) MarkHealed(platform, library string, rolledBack bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pair(platform, library)
	if p.state != Quarantined {
		return
	}
	if rolledBack {
		p.state = RolledBack
	} else {
		p.state = Healed
	}
	p.drifted = 0
	p.healEpoch = m.epoch
}

// QuarantinedLibs returns the quarantined library names of a
// platform, sorted.
func (m *Monitor) QuarantinedLibs(platform string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var libs []string
	for k, p := range m.pairs {
		if k.platform == platform && p.state == Quarantined {
			libs = append(libs, k.library)
		}
	}
	sort.Strings(libs)
	return libs
}

// Snapshot returns every tracked pair's status, sorted by (platform,
// library) — the /statusz health section.
func (m *Monitor) Snapshot() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.pairs))
	for k, p := range m.pairs {
		out = append(out, Status{
			Platform: k.platform, Library: k.library,
			State:            p.state.String(),
			DriftedEntries:   p.drifted,
			QuarantinedEpoch: p.quarEpoch,
			HealedEpoch:      p.healEpoch,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Platform != out[j].Platform {
			return out[i].Platform < out[j].Platform
		}
		return out[i].Library < out[j].Library
	})
	return out
}
