package serve

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"time"

	"repro/internal/health"
	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/resilience"
	"repro/internal/tune"
)

// This file is the serve side of the plan-health subsystem: LUT
// registration with profile epochs and per-library fingerprints,
// deterministic canary re-profiling, drift quarantine, and the
// self-healing re-optimization that refreshes stale cached plans
// through the normal admission/coalescing machinery.

// lutInfo is the server's health registration of one profiled LUT:
// everything the canary sampler needs to re-measure entries, plus the
// staleness marks the quarantine machinery sets.
type lutInfo struct {
	lutKey   string
	network  string
	platform string
	modeName string
	mode     primitives.Mode
	samples  int
	net      *nn.Network
	board    *platform.Platform
	tab      *lut.Table

	// fps / fpByLib are the per-library measurement fingerprints
	// (median + MAD) computed when the table was registered.
	fps     []health.Fingerprint
	fpByLib map[string]health.Fingerprint

	// epoch is the profile epoch this table was measured under.
	epoch int64
	// round is the table's canary rotation counter.
	round int64
	// staleLibs marks libraries whose measurements were quarantined
	// as drifted; plans priced on this table are served revalidating
	// until a re-profile + re-search replaces them.
	staleLibs map[string]bool
	// fastFails marks a table built while a breaker was fast-failing
	// (candidates dropped without ever being measured); breakerStale
	// marks it evicted for re-profiling once the breaker closed.
	fastFails    bool
	breakerStale bool
}

// stale reports whether plans priced on this table need revalidation.
func (li *lutInfo) stale() bool { return len(li.staleLibs) > 0 || li.breakerStale }

// registerLUT records (or refreshes) the health registration for the
// table a job just obtained from the single-flight cache. A table
// pointer already registered is a cache hit — same epoch. A new table
// under an existing key is a re-profile: the profile epoch advances,
// and any staleness of the replaced registration is gone (the fresh
// table measured everything again).
func (s *Server) registerLUT(spec *jobSpec, net *nn.Network, board *platform.Platform, tab *lut.Table, rep *profile.Report) *lutInfo {
	k := spec.lutKey()
	s.lutMu.Lock()
	defer s.lutMu.Unlock()
	if prev := s.luts[k]; prev != nil && prev.tab == tab {
		return prev
	}
	li := &lutInfo{
		lutKey:    k,
		network:   spec.Network,
		platform:  spec.Platform,
		modeName:  spec.ModeName,
		mode:      spec.Mode,
		samples:   spec.Samples,
		net:       net,
		board:     board,
		tab:       tab,
		fps:       health.Fingerprints(spec.Platform, tab),
		fpByLib:   map[string]health.Fingerprint{},
		staleLibs: map[string]bool{},
	}
	for _, fp := range li.fps {
		li.fpByLib[fp.Library] = fp
	}
	if rep != nil && rep.FastFails > 0 {
		li.fastFails = true
	}
	if prev := s.luts[k]; prev != nil {
		li.epoch = s.monitor.NextEpoch()
		li.round = prev.round
	} else {
		li.epoch = s.monitor.Epoch()
	}
	s.luts[k] = li
	s.maybeMarkHealedLocked(spec.Platform)
	return li
}

// lutEpochFor returns the registered table's staleness and epoch for a
// profiling key (ok=false when the key was never registered).
func (s *Server) lutStateFor(lutKey string) (stale bool, epoch int64, ok bool) {
	s.lutMu.Lock()
	defer s.lutMu.Unlock()
	li := s.luts[lutKey]
	if li == nil {
		return false, 0, false
	}
	return li.stale(), li.epoch, true
}

// faultSource returns the shared fault injector for a profiling key,
// creating it on first use. Sharing one injector per key (instead of
// one per build) is what lets injected drift persist across
// re-profiles and be observed by canaries: the environment drifts,
// not the run.
func (s *Server) faultSource(lutKey string, src profile.Source) *profile.FaultSource {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	fs := s.faultSrcs[lutKey]
	if fs == nil {
		fs = profile.NewFaultSource(src, *s.cfg.Faults)
		fs.SetDriftRound(s.driftRound)
		s.faultSrcs[lutKey] = fs
	}
	return fs
}

// AdvanceDrift advances the injected-drift round on every fault
// source (the chaos harness's "the environment just shifted" lever)
// and returns the new round. No-op counters still advance when no
// sources exist yet; sources created later start at the current round.
func (s *Server) AdvanceDrift() int64 {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	s.driftRound++
	for _, fs := range s.faultSrcs {
		fs.SetDriftRound(s.driftRound)
	}
	return s.driftRound
}

// measureSource composes the measurement stack a profiling run and a
// canary re-measurement share: the simulator, then the key's fault
// injector, then the circuit breakers. Canaries thus observe exactly
// what a re-profile would, including breaker fast-fails, whose
// half-open probes the canaries double as.
func (s *Server) measureSource(net *nn.Network, board *platform.Platform, lutKey, plat string) profile.Source {
	var src profile.Source = profile.NewSimSource(net, board)
	if s.cfg.Faults != nil {
		// One injector per profiling key, shared across re-profiles and
		// canary measurements: the (injected) environment drifts, not
		// the individual run.
		src = s.faultSource(lutKey, src)
	}
	if s.breakers != nil {
		src = resilience.GuardSource(s.breakers, plat, src)
	}
	return src
}

// canaryEntry is one (layer, primitive) cell of a LUT's full candidate
// space — dropped candidates included, so canaries double as recovery
// probes for entries a breaker fast-failed out of the table.
type canaryEntry struct {
	layer int
	prim  *primitives.Primitive
}

// canaryEntries lists the cells of li's table the canaries may
// re-measure. It leaves out the (layer, base) cells the tuner cache
// names for the table's network and mode: Cache.Apply may have priced
// such a cell with the tuner's engine measurement of a tuned config,
// which a fresh simulator sample of the default config would read as
// drift, quarantining a healthy library.
func canaryEntries(li *lutInfo, tuner *tune.Cache) []canaryEntry {
	type cell struct {
		layer int
		prim  string
	}
	tuned := map[cell]bool{}
	if tuner != nil && tuner.Network == li.network && tuner.Mode == li.mode.String() {
		for _, e := range tuner.Entries {
			tuned[cell{e.Layer, e.Base}] = true
		}
	}
	var out []canaryEntry
	for i := 1; i < li.net.Len(); i++ {
		for _, p := range primitives.Candidates(li.net.Layers[i], li.mode) {
			if !tuned[cell{i, p.Name}] {
				out = append(out, canaryEntry{layer: i, prim: p})
			}
		}
	}
	return out
}

// CanaryTick runs one canary round: for every registered LUT, a
// deterministic rotating subset of its (layer, primitive) entries is
// re-measured through the robust policy and the breaker-guarded
// source, fresh estimates are compared to the stored baselines inside
// the MAD-scaled drift band, and confirmed-drifted (platform, library)
// pairs are quarantined — their tables evicted from the single-flight
// cache and their dependent plans handed to the self-healing
// re-optimizer. The schedule is a pure function of (seed, per-LUT
// round counter); no wall clock is consulted.
func (s *Server) CanaryTick(ctx context.Context) health.TickStats {
	var st health.TickStats
	s.lutMu.Lock()
	infos := make([]*lutInfo, 0, len(s.luts))
	for _, li := range s.luts {
		infos = append(infos, li)
	}
	s.lutMu.Unlock()
	sort.Slice(infos, func(a, b int) bool { return infos[a].lutKey < infos[b].lutKey })

	type pair struct{ plat, lib string }
	driftedBy := map[pair]int{}
	cleanSeen := map[pair]bool{}
	for _, li := range infos {
		s.lutMu.Lock()
		li.round++
		round := li.round
		s.lutMu.Unlock()
		entries := canaryEntries(li, s.tuner)
		idxs := health.CanaryIndices(s.hcfg.Seed, round, len(entries), s.hcfg.Size())
		src := s.measureSource(li.net, li.board, li.lutKey, li.platform)
		pol := profile.RobustFor(s.cfg.Robust, s.cfg.Faults)
		for _, ix := range idxs {
			if ctx.Err() != nil {
				return st
			}
			e := entries[ix]
			st.Measured++
			s.canaryMeasured.Add(1)
			lib := e.prim.Lib.String()
			base := li.tab.Time(e.layer, e.prim.Idx)
			fresh, err := profile.RemeasureSample(ctx, src, pol, e.layer, e.prim, li.samples)
			if err != nil {
				// Breaker fast-fail or persistent fault: the entry is
				// still unmeasurable; nothing to compare.
				continue
			}
			if math.IsInf(base, 1) {
				// Recovery canary: a dropped entry measured successfully
				// again — its breaker just saw a successful probe, and
				// evictBreakerDegraded below re-profiles the table once
				// the breaker closes.
				st.Recovered++
				continue
			}
			fp, ok := li.fpByLib[lib]
			if !ok {
				continue
			}
			p := pair{li.platform, lib}
			if s.hcfg.Drifted(fresh, base, fp.MADSec) {
				st.Drifted++
				s.driftedEntries.Add(1)
				driftedBy[p]++
			} else {
				cleanSeen[p] = true
			}
		}
	}

	// Fold observations into the state machine in deterministic order.
	pairs := make([]pair, 0, len(driftedBy))
	for p := range driftedBy {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].plat != pairs[b].plat {
			return pairs[a].plat < pairs[b].plat
		}
		return pairs[a].lib < pairs[b].lib
	})
	for _, p := range pairs {
		if s.monitor.NoteDrift(p.plat, p.lib, driftedBy[p]) {
			st.Quarantined++
			s.quarantine(p.plat, p.lib)
		}
	}
	cleans := make([]pair, 0, len(cleanSeen))
	for p := range cleanSeen {
		if driftedBy[p] == 0 {
			cleans = append(cleans, p)
		}
	}
	sort.Slice(cleans, func(a, b int) bool {
		if cleans[a].plat != cleans[b].plat {
			return cleans[a].plat < cleans[b].plat
		}
		return cleans[a].lib < cleans[b].lib
	})
	for _, p := range cleans {
		s.monitor.NoteClean(p.plat, p.lib)
	}

	s.evictBreakerDegraded()
	if !s.hcfg.NoHeal {
		s.healStale()
	}
	s.canaryRounds.Add(1)
	return st
}

// quarantine applies a confirmed (platform, library) quarantine: every
// registered LUT of the platform that measured the library is marked
// stale and evicted from the single-flight cache, so the next build
// (a heal job's, or any user request's) re-profiles.
func (s *Server) quarantine(plat, lib string) {
	s.quarantines.Add(1)
	s.lutMu.Lock()
	for _, li := range s.luts {
		if li.platform != plat {
			continue
		}
		if _, ok := li.fpByLib[lib]; !ok {
			continue
		}
		li.staleLibs[lib] = true
		if s.flight.Evict(li.lutKey) {
			s.lutEvicted.Add(1)
		}
	}
	s.lutMu.Unlock()
}

// evictBreakerDegraded evicts cached tables whose candidates were
// dropped by breaker fast-fails once every breaker of their platform
// has closed again: the backend healed, so a degraded table must not
// be served forever. The evicted tables' plans go through the same
// self-healing path as drift quarantine.
func (s *Server) evictBreakerDegraded() {
	if s.breakers == nil {
		return
	}
	var snap []resilience.BreakerStatus
	healthy := func(plat string) bool {
		if snap == nil {
			snap = s.breakers.Snapshot()
		}
		for _, b := range snap {
			if b.Platform == plat && b.State != resilience.Closed {
				return false
			}
		}
		return true
	}
	s.lutMu.Lock()
	for _, li := range s.luts {
		if !li.fastFails || li.breakerStale {
			continue
		}
		if !healthy(li.platform) {
			continue
		}
		li.breakerStale = true
		if s.flight.Evict(li.lutKey) {
			s.lutEvicted.Add(1)
		}
		s.degradedEvicted.Add(1)
	}
	s.lutMu.Unlock()
}

// healStale enqueues a background re-optimization for every cached
// plan whose LUT is stale, deduped through the normal coalescing map
// and bounded by the admission queue (a full queue defers the heal to
// the next canary tick rather than blocking it).
func (s *Server) healStale() int {
	type cand struct {
		spec *jobSpec
		key  string
	}
	var cands []cand
	s.lutMu.Lock()
	for _, li := range s.luts {
		if !li.stale() {
			continue
		}
		for _, pk := range s.planIndex[li.lutKey] {
			if sp, err := specFromKey(pk); err == nil {
				cands = append(cands, cand{spec: sp, key: pk})
			}
		}
	}
	s.lutMu.Unlock()
	sort.Slice(cands, func(a, b int) bool { return cands[a].key < cands[b].key })
	enqueued := 0
	for _, c := range cands {
		if s.enqueueHeal(c.spec) {
			enqueued++
			s.lutMu.Lock()
			s.healPending[c.spec.Platform]++
			s.lutMu.Unlock()
		}
	}
	return enqueued
}

// HealNow synchronously enqueues heal jobs for every stale plan,
// regardless of -no-heal — the explicit-heal lever (tests and
// operators drive it; the canary loop calls the same machinery).
// Returns how many jobs were enqueued.
func (s *Server) HealNow() int { return s.healStale() }

// enqueueHeal admits one revalidation job: pinned (no waiters — the
// server itself wants the result), deduped against any in-flight job
// for the same key (a live user job produces the same fresh plan), and
// dropped — not blocked on — when the queue is full or the server is
// draining.
func (s *Server) enqueueHeal(spec *jobSpec) bool {
	key := spec.key()
	s.mu.Lock()
	if s.draining || s.byKey[key] != nil {
		s.mu.Unlock()
		return false
	}
	j := newJob(s.newID(), spec)
	j.revalidate = true
	j.pinned = true
	j.arm(s.baseCtx, 0)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		j.release()
		s.healsDeferred.Add(1)
		return false
	}
	s.jobs[j.id] = j
	s.byKey[key] = j
	s.queuedN.Add(1)
	s.healsEnqueued.Add(1)
	s.mu.Unlock()
	return true
}

// healDone is called when a revalidation job reaches any terminal
// state: the platform's outstanding-heal count drops, and once it
// reaches zero every quarantined library with no remaining stale LUT
// is marked healed (or rolled-back when any heal kept its parent). A
// heal that stored its plan (healed) is counted here, after the drop
// and under lutMu, so a reader that sees the count and then asks for
// the plan sees the platform's heal state already settled.
func (s *Server) healDone(spec *jobSpec, healed, rolledBack bool) {
	plat := spec.Platform
	s.lutMu.Lock()
	defer s.lutMu.Unlock()
	if rolledBack {
		s.healRolled[plat] = true
	}
	if n := s.healPending[plat]; n > 1 {
		s.healPending[plat] = n - 1
	} else {
		delete(s.healPending, plat)
	}
	s.maybeMarkHealedLocked(plat)
	if healed {
		s.healedN.Add(1)
		if rolledBack {
			s.rolledBackN.Add(1)
		}
	}
}

// maybeMarkHealedLocked resolves a platform's quarantines once no heal
// is outstanding: libraries whose every registered LUT is fresh again
// transition to healed/rolled-back. Callers hold lutMu.
func (s *Server) maybeMarkHealedLocked(plat string) {
	if s.healPending[plat] > 0 {
		return
	}
	libs := s.monitor.QuarantinedLibs(plat)
	if len(libs) == 0 {
		return
	}
	remaining := false
	for _, lib := range libs {
		stillStale := false
		for _, li := range s.luts {
			if li.platform == plat && li.staleLibs[lib] {
				stillStale = true
				break
			}
		}
		if stillStale {
			remaining = true
			continue
		}
		s.monitor.MarkHealed(plat, lib, s.healRolled[plat])
		s.healedPairs.Add(1)
	}
	if !remaining {
		delete(s.healRolled, plat)
	}
}

// replayAssignment re-prices a stored plan's assignment on a fresh
// table: the rollback check's input. ok is false when the payload does
// not parse, the assignment no longer fits the table (layer count or
// candidate sets changed), or it prices to a non-finite total.
func replayAssignment(payload []byte, tab *lut.Table) ([]primitives.ID, float64, bool) {
	var pr PlanResponse
	if json.Unmarshal(payload, &pr) != nil {
		return nil, 0, false
	}
	if len(pr.Assignment) != tab.NumLayers() {
		return nil, 0, false
	}
	ids := make([]primitives.ID, len(pr.Assignment))
	for i, v := range pr.Assignment {
		id := primitives.ID(v)
		ok := false
		for _, c := range tab.Candidates(i) {
			if c == id {
				ok = true
				break
			}
		}
		if !ok {
			return nil, 0, false
		}
		ids[i] = id
	}
	t := tab.TotalTime(ids)
	if math.IsInf(t, 0) || math.IsNaN(t) {
		return nil, 0, false
	}
	return ids, t, true
}

// notePlan records a plan's health metadata and indexes it under its
// profiling key so quarantine can find the plans a stale LUT priced.
func (s *Server) notePlan(key string, spec *jobSpec, meta planMeta) {
	s.planMu.Lock()
	s.planMetas[key] = meta
	s.planMu.Unlock()
	lk := spec.lutKey()
	s.lutMu.Lock()
	found := false
	for _, k := range s.planIndex[lk] {
		if k == key {
			found = true
			break
		}
	}
	if !found {
		s.planIndex[lk] = append(s.planIndex[lk], key)
	}
	s.lutMu.Unlock()
}

// planMetaFor returns the recorded health metadata for a plan key
// (zero meta for plans stored before the health subsystem existed).
func (s *Server) planMetaFor(key string) planMeta {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	return s.planMetas[key]
}

// cachedResponse wraps a cache-served plan in its health envelope:
// plan_epoch, age (profile epochs the plan's LUT has advanced since it
// was optimized), and revalidating — set while the plan's LUT is
// quarantined or breaker-stale, while its platform's heals are still
// in flight, or when the plan's age passed -plan-ttl. The plan bytes
// themselves are untouched, so byte-identity guarantees hold.
func (s *Server) cachedResponse(spec *jobSpec, key string, payload json.RawMessage) OptimizeResponse {
	resp := OptimizeResponse{State: StateDone, Cached: true, Plan: payload}
	meta := s.planMetaFor(key)
	resp.PlanEpoch = meta.Epoch
	stale, lutEpoch, ok := s.lutStateFor(spec.lutKey())
	if !ok {
		return resp
	}
	age := lutEpoch - meta.Epoch
	if age < 0 {
		age = 0
	}
	resp.Age = age
	s.lutMu.Lock()
	healing := s.healPending[spec.Platform] > 0
	s.lutMu.Unlock()
	ttl := s.hcfg.PlanTTL
	if stale || (age > 0 && healing) || (ttl > 0 && age >= ttl) {
		resp.Revalidating = true
		s.revalServed.Add(1)
	}
	return resp
}

// canaryLoop drives CanaryTick at the configured wall-clock cadence.
// The interval only schedules work; every health decision inside the
// tick is epoch-based.
func (s *Server) canaryLoop(d time.Duration) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-s.canaryStop:
			return
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.CanaryTick(s.baseCtx)
		}
	}
}
