package runner

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lut"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/searchplan"
)

// cacheKey identifies one profiling run. Two jobs that agree on all
// three fields consume byte-identical look-up tables (profiling is
// deterministic per sample index), so the table is built once and
// shared.
type cacheKey struct {
	network string
	mode    primitives.Mode
	samples int
}

// String renders the key in the canonical form the cache indexes by.
// External composers of the cache (runner.Flight) bring their own key
// strings — e.g. the serve daemon adds the platform preset, which a
// batch never varies.
func (k cacheKey) String() string {
	return fmt.Sprintf("%s|%d|%d", k.network, int(k.mode), k.samples)
}

// cacheEntry is one in-flight or completed profiling run. ready is
// closed when tab/plan/rep/err are final; waiters block on it instead
// of holding the cache lock across the (expensive) build. The entry
// carries the table's compiled search plan too, so a batch compiles
// each distinct table exactly once no matter how many (job, seed)
// units search it.
type cacheEntry struct {
	ready chan struct{}
	tab   *lut.Table
	plan  *searchplan.Plan
	rep   *profile.Report
	err   error
}

// tableCache is a keyed single-flight cache: the first request for a
// key builds the table, every concurrent or later request for the same
// key waits for (or immediately gets) that one result. A one-worker
// batch has a single caller, so it never parks on another's build
// (TestSequentialCacheNeverParks).
type tableCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    int
	misses  int
	// parked counts get calls that actually blocked on another
	// caller's in-flight build.
	parked atomic.Int64
}

func newTableCache() *tableCache {
	return &tableCache{entries: map[string]*cacheEntry{}}
}

// get returns the table for key, building it with build on the first
// request. Concurrent callers with the same key share the single
// build; waiters coalesced onto a failing build all see its error, but
// the failed entry is then evicted, so the key's next get retries the
// build instead of replaying a cached failure forever — a transient
// board outage must not poison the batch.
func (c *tableCache) get(key string, build func() (*lut.Table, *profile.Report, error)) (*lut.Table, *searchplan.Plan, *profile.Report, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
			// Build already final; no parking.
		default:
			c.parked.Add(1)
			<-e.ready
		}
		return e.tab, e.plan, e.rep, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.tab, e.rep, e.err = build()
	if e.err != nil {
		c.mu.Lock()
		// Guard on identity: a later successful rebuild must not be
		// evicted by a stale failure.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	} else if e.tab != nil {
		// Compile before publishing, so every waiter shares the one
		// plan.
		e.plan = searchplan.Compile(e.tab)
	}
	close(e.ready)
	return e.tab, e.plan, e.rep, e.err
}

// evict removes key's completed entry so the next get re-runs the
// build — how the serve daemon's plan-health machinery forces a
// re-profile of a table whose measurements drifted or whose candidates
// were dropped by breaker fast-fails. An in-flight build is left
// alone (its waiters must all observe the one result; the caller can
// evict again once it completes). Returns whether an entry was
// removed.
func (c *tableCache) evict(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	select {
	case <-e.ready:
	default:
		return false
	}
	delete(c.entries, key)
	return true
}

// stats returns the lookup counters: hits is the number of requests
// served from (or coalesced into) an existing entry, misses the number
// of distinct builds executed.
func (c *tableCache) stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// parkedWaiters reports how many get calls blocked behind another
// caller's in-flight build.
func (c *tableCache) parkedWaiters() int { return int(c.parked.Load()) }
