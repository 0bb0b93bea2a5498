package runner

import (
	"testing"

	"repro/internal/lut"
	"repro/internal/profile"
)

// Eviction contract (plan-health): evict removes a completed entry so
// the next get rebuilds, returns false for unknown keys, and never
// tears an in-flight build out from under its waiters.

func TestEvictRebuildsOnNextGet(t *testing.T) {
	tab := seqTestTable(t)
	for name, c := range map[string]*tableCache{
		"concurrent": newTableCache(),
	} {
		t.Run(name, func(t *testing.T) {
			builds := 0
			build := func() (*lut.Table, *profile.Report, error) {
				builds++
				return tab, nil, nil
			}
			if c.evict("lenet5|0|2") {
				t.Fatal("evict of an empty cache returned true")
			}
			if _, _, _, err := c.get("lenet5|0|2", build); err != nil {
				t.Fatal(err)
			}
			if !c.evict("lenet5|0|2") {
				t.Fatal("evict of a completed entry returned false")
			}
			if c.evict("lenet5|0|2") {
				t.Fatal("second evict of the same key returned true")
			}
			got, plan, _, err := c.get("lenet5|0|2", build)
			if err != nil {
				t.Fatal(err)
			}
			if got != tab || plan == nil {
				t.Fatal("rebuild after evict returned a broken entry")
			}
			if builds != 2 {
				t.Fatalf("build ran %d times, want 2 (rebuild after evict)", builds)
			}
			if _, misses := c.stats(); misses != 2 {
				t.Fatalf("misses = %d, want 2", misses)
			}
		})
	}
}

func TestEvictLeavesInFlightBuildAlone(t *testing.T) {
	tab := seqTestTable(t)
	f := NewFlight()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan *lut.Table, 1)
	go func() {
		got, _, _, _ := f.Get("k", func() (*lut.Table, *profile.Report, error) {
			close(started)
			<-release
			return tab, nil, nil
		})
		done <- got
	}()
	<-started
	if f.Evict("k") {
		t.Error("evict removed an in-flight build")
	}
	close(release)
	if got := <-done; got != tab {
		t.Fatal("in-flight build returned the wrong table")
	}
	// The entry survived the attempted eviction: this Get is a hit.
	if _, _, _, err := f.Get("k", func() (*lut.Table, *profile.Report, error) {
		t.Error("build re-ran after a refused eviction")
		return tab, nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := f.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// Once the build is final, eviction succeeds and the next Get
	// rebuilds.
	if !f.Evict("k") {
		t.Fatal("evict of the now-completed entry returned false")
	}
	rebuilt := false
	if _, _, _, err := f.Get("k", func() (*lut.Table, *profile.Report, error) {
		rebuilt = true
		return tab, nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("Get after a successful eviction did not rebuild")
	}
}
