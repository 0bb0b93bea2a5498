package primitives

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
)

// NOTE: EnableTunedVariants is process-global and idempotent; these
// tests run in the primitives test binary, which has no golden files
// sized by Count(). Packages with committed goldens (internal/core)
// must never call it from tests.

func TestEnableTunedVariants(t *testing.T) {
	base := Count()
	if base != len(registry) {
		t.Fatalf("Count = %d before EnableTunedVariants, want the %d registered", base, len(registry))
	}
	var twins []*Primitive
	var wg sync.WaitGroup
	results := make([][]*Primitive, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = EnableTunedVariants()
		}(i)
	}
	wg.Wait()
	twins = results[0]
	if len(twins) == 0 {
		t.Fatal("no twins registered")
	}
	if Count() != base+len(twins) {
		t.Errorf("Count = %d, want %d", Count(), base+len(twins))
	}
	for _, r := range results[1:] {
		if len(r) != len(twins) {
			t.Errorf("concurrent enable returned %d twins, want %d", len(r), len(twins))
		}
	}
	// Idempotent: a second call adds nothing.
	EnableTunedVariants()
	if Count() != base+len(twins) {
		t.Error("EnableTunedVariants is not idempotent")
	}
	for _, tw := range twins {
		if !tw.Tuned {
			t.Errorf("%s: Tuned flag not set", tw.Name)
		}
		if !strings.HasSuffix(tw.Name, TunedSuffix) {
			t.Errorf("twin name %q lacks %q", tw.Name, TunedSuffix)
		}
		b := ByID(tw.Base)
		if b.Tuned || b.Name+TunedSuffix != tw.Name {
			t.Errorf("twin %s has wrong base %s", tw.Name, b.Name)
		}
		if tw.Lib != b.Lib || tw.Algo != b.Algo || tw.Lower != b.Lower || tw.Proc != b.Proc || tw.Layout != b.Layout {
			t.Errorf("twin %s does not mirror base %s", tw.Name, b.Name)
		}
		if got, ok := TunedOf(b.Idx); !ok || got != tw.Idx {
			t.Errorf("TunedOf(%s) = %d, %v", b.Name, got, ok)
		}
		if ByID(b.Idx).Base != b.Idx {
			t.Errorf("base %s does not resolve to itself", b.Name)
		}
		if p, ok := ByName(tw.Name); !ok || p != tw {
			t.Errorf("ByName(%q) lookup failed", tw.Name)
		}
	}
}

// TestTunedTwinsNeverInCandidates pins the golden-safety contract:
// default candidate sets are built from the explicit base primitives,
// so enabling twins must not change any layer's candidates.
func TestTunedTwinsNeverInCandidates(t *testing.T) {
	EnableTunedVariants()
	for _, kind := range nn.AllOpKinds() {
		l := layerOfKind(t, kind)
		for _, p := range Candidates(l, ModeGPGPU) {
			if p.Tuned {
				t.Errorf("%v: tuned twin %s leaked into default candidates", kind, p.Name)
			}
		}
	}
}
