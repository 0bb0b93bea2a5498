package tune

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/searchplan"
)

// pinnedEntry is a synthetic cache entry: the test needs only a
// layer, a base and a time.
func pinnedEntry(layer int, base string, sec float64) Entry {
	return Entry{Layer: layer, Base: base, Variant: Variant{KC: 32}, Seconds: sec, DefaultSec: 1e-2}
}

// pinnedCases fix, per network, a cache with entries across all three
// bases — some faster than the table's base time, some slower, and one
// (layer, base) twice, slower first — and the exact optimum of the
// tuned table.
//
// The optima were recorded when a tuning was a separate candidate of
// its layer (a copy of the base with the base's penalties and the
// entry's time, last duplicate winning): optBits is the total's
// float64 bits, optNames the per-layer primitives from layer 1 on,
// and tuned the "layer:base" pairs where the optimum chose the tuned
// copy. Writing the tuned time onto the base's own entry must
// reproduce all three, with tuned equal to the pairs Apply applies.
var pinnedCases = []struct {
	net      string
	entries  []Entry
	optBits  uint64
	optNames string
	tuned    []string
}{
	{
		net: "lenet5",
		entries: []Entry{
			pinnedEntry(1, "openblas-gemm-im2col", 1e-6),
			pinnedEntry(1, "openblas-gemm-kn2row", 1e-3),
			pinnedEntry(3, "openblas-gemm-im2row", 5e-3),
			pinnedEntry(3, "openblas-gemm-kn2row", 9e-3),
			pinnedEntry(3, "openblas-gemm-kn2row", 2e-6),
		},
		optBits:  0x3f31114e224eb819,
		optNames: "openblas-gemm-im2col vanilla-direct openblas-gemm-kn2row vanilla-direct vanilla-direct sparse-fc vanilla-direct sparse-fc vanilla-direct",
		tuned:    []string{"1:openblas-gemm-im2col", "3:openblas-gemm-kn2row"},
	},
	{
		net: "mobilenet-v1-025",
		entries: []Entry{
			pinnedEntry(4, "openblas-gemm-im2col", 1e-6),
			pinnedEntry(7, "openblas-gemm-im2col", 1e-6),
			pinnedEntry(13, "openblas-gemm-im2row", 1e-6),
			pinnedEntry(19, "openblas-gemm-kn2row", 1e-2),
			pinnedEntry(25, "openblas-gemm-im2row", 8e-3),
			pinnedEntry(25, "openblas-gemm-im2row", 2e-6),
			pinnedEntry(31, "openblas-gemm-im2col", 5e-3),
		},
		optBits: 0x3f95e5aa2b9629ac,
		optNames: "sparse-conv vanilla-direct vanilla-direct openblas-gemm-im2col vanilla-direct vanilla-direct " +
			"openblas-gemm-im2col vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"openblas-gemm-im2row vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"openblas-gemm-im2row vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct nnpack-op armcl-depthwise vanilla-direct vanilla-direct " +
			"sparse-conv vanilla-direct vanilla-direct vanilla-direct vanilla-direct sparse-fc " +
			"vanilla-direct",
		tuned: []string{"13:openblas-gemm-im2row", "25:openblas-gemm-im2row", "4:openblas-gemm-im2col", "7:openblas-gemm-im2col"},
	},
}

// TestTunedOptimumPinned: on CPU simulator tables of the TX2-like
// board, the exact optimum of a tuned table keeps the total, the
// per-layer primitives and the tuned layers it had when each tuning
// was a candidate of its own.
func TestTunedOptimumPinned(t *testing.T) {
	board, _ := platform.Preset("tx2-like")
	for _, pc := range pinnedCases {
		net, err := models.Build(pc.net)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := profile.Run(net, profile.NewSimSource(net, board), profile.Options{Mode: primitives.ModeCPU, Samples: 5})
		if err != nil {
			t.Fatal(err)
		}
		c := &Cache{Network: pc.net, Mode: primitives.ModeCPU.String(), Entries: pc.entries}
		applied, _ := c.Apply(tab, net)
		res, err := core.OptimalPlanned(searchplan.Compile(tab))
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.Time); got != pc.optBits {
			t.Errorf("%s: optimum %v (bits %#x), want bits %#x", pc.net, res.Time, got, pc.optBits)
		}
		names := make([]string, 0, len(res.Assignment)-1)
		for _, id := range res.Assignment[1:] {
			names = append(names, primitives.ByID(id).Name)
		}
		if got := strings.Join(names, " "); got != pc.optNames {
			t.Errorf("%s: optimum primitives\n%s\nwant\n%s", pc.net, got, pc.optNames)
		}
		seen := map[string]bool{}
		var tuned []string
		for _, a := range applied {
			k := fmt.Sprintf("%d:%s", a.Layer, primitives.ByID(a.Base).Name)
			if !seen[k] {
				seen[k] = true
				tuned = append(tuned, k)
			}
		}
		sort.Strings(tuned)
		if strings.Join(tuned, ",") != strings.Join(pc.tuned, ",") {
			t.Errorf("%s: applied %q, want the tuned layers %q", pc.net, tuned, pc.tuned)
		}
	}
}
