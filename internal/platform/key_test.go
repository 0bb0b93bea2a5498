package platform

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/primitives"
)

// refHash01 is the noise draw as first written: fmt formats the seed,
// then "/%v" per part, into FNV-1a.
func refHash01(seed uint64, parts ...any) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, p := range parts {
		fmt.Fprintf(h, "/%v", p)
	}
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

// FuzzKeyHash checks the fabrication and measurement draws of one
// (layer, primitive) pair, renamed to the fuzzed names, against the
// fmt-formatted reference keys: both the modelled latency and every
// sample must match bit for bit.
func FuzzKeyHash(f *testing.F) {
	f.Add(uint64(0), "conv3x3", "openblas-gemm-im2col", 0)
	f.Add(uint64(math.MaxUint64), "inception_3a/1x1", "cudnn-conv", 49)
	f.Add(uint64(1<<63), "a|b", "x|y/z", -1)
	f.Add(uint64(18446744073709551615-7), "", "", math.MinInt)
	f.Add(uint64(1), "héllo/wörld", "\xff\xfe", math.MaxInt)
	f.Add(uint64(42), "/", "|", -1234567890123)
	net := probeNet()
	l := net.Layers[net.LayerIndex("conv3x3")]
	p, _ := primitives.ByName("openblas-gemm-im2col")
	f.Fuzz(func(t *testing.T, seed uint64, layerName, primName string, sample int) {
		pl := JetsonTX2Like()
		pl.Seed = seed
		l2, p2 := *l, *p
		l2.Name, p2.Name = layerName, primName

		clean := *pl
		clean.FabricationNoise = 0
		want := clean.LayerLatency(&l2, &p2)
		want *= 1 + pl.FabricationNoise*(2*refHash01(seed, "fab", layerName, primName)-1)
		q := pl.Pair(&l2, &p2)
		if q.Base != want {
			t.Fatalf("LayerLatency = %v, want %v", q.Base, want)
		}
		u := refHash01(seed, "meas", layerName, primName, sample)
		if got, want := q.Sample(sample), want*(1+pl.MeasurementNoise*(2*u-1)); got != want {
			t.Fatalf("Sample(%d) = %v, want %v", sample, got, want)
		}
	})
}
