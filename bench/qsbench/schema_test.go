package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// testSizes runs every workload with the fewest calls that still reach
// every layer it reports on.
func testSizes() sizes {
	return sizes{
		setupReps:  2,
		zooNets:    []string{"lenet5", "squeezenet"},
		zooSamples: 2,
		episodes:   40,
		serveNets:  []string{"lenet5", "squeezenet"},
		serveRanks: 3,
		serveTop:   4,
		serveRefs:  2,
		refSearch:  3,
		gemmReps:   1,
	}
}

// TestSchema runs every workload of BENCHMARK.json untraced and traced
// at reduced sizes, and checks that each reports exactly the metrics
// BENCHMARK.json lists, with their units, in the summary line the
// benchmark's caller parses.
func TestSchema(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !sameSet(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, qsbench runs %v", names, workloadNames())
	}
	want := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			c := &runCtx{seed: 3, sz: testSizes(), planDir: "plans"}
			wantMetrics := want(spec.EndToEnd)
			if traced {
				c.tr = newTracer()
				wantMetrics = want(spec.PerLayer)
			}
			res, err := workloads[name](c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			reported := res.e2e
			if traced {
				reported = res.layer
			}
			seen := map[string]bool{}
			for _, m := range reported {
				if seen[m.Name] {
					t.Errorf("%s traced=%v: %s reported twice", name, traced, m.Name)
				}
				seen[m.Name] = true
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, res.failed, res.attempted)
			}
			var out bytes.Buffer
			if err := report(&out, name, c.seed, res, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var summary map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range summary {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: summary keys %v", name, keys)
			}
			var metrics map[string]struct {
				Value float64
				Unit  string
			}
			if err := json.Unmarshal(summary["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			for m, unit := range wantMetrics {
				got, ok := metrics[m]
				if !ok {
					t.Errorf("%s traced=%v: %s not reported", name, traced, m)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: %s in %q, BENCHMARK.json says %q", name, traced, m, got.Unit, unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (!traced && got.Value <= 0) {
					t.Errorf("%s traced=%v: %s = %v", name, traced, m, got.Value)
				}
			}
			for m := range metrics {
				if _, ok := wantMetrics[m]; !ok {
					t.Errorf("%s traced=%v: %s is not in BENCHMARK.json", name, traced, m)
				}
			}
		}
	}
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
