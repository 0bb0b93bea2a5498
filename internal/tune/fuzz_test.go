package tune

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/store"
	"repro/internal/tensor"
)

// fuzzNet builds the network outside the fuzz loop; the fuzz target
// must not depend on testing.T helpers.
func fuzzNet() *nn.Network {
	b := nn.NewBuilder("tune-test", tensor.Shape{N: 1, C: 16, H: 19, W: 19})
	x := b.Conv("conv1", b.Input(), 24, 3, 1, 1)
	x = b.ReLU("relu", x)
	x = b.Conv("conv2", x, 16, 3, 1, 1)
	b.Softmax("prob", x)
	return b.MustBuild()
}

// FuzzCacheLoad throws arbitrary bytes at the tuned-cache codec: a
// corrupt, torn or forged file must either fail to load or apply with
// skips — it must never panic and never corrupt the table.
func FuzzCacheLoad(f *testing.F) {
	net := fuzzNet()
	// Seed with a genuine cache file (envelope + payload), its
	// truncations, bit flips, and raw forged payloads.
	c := &Cache{
		Network: net.Name,
		Mode:    primitives.ModeCPU.String(),
		Entries: []Entry{{Layer: 1, Base: "openblas-gemm-im2col", Variant: Variant{KC: 32}, Seconds: 0.5, DefaultSec: 1}},
	}
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.qsd")
	if err := c.Save(seedPath); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("QSD1 but not really"))
	f.Add(store.Encode([]byte(`{"network":"tune-test","mode":"cpu","entries":[{"layer":99,"base":"x","variant":{"kc":-1},"sec":-5}]}`)))
	f.Add(store.Encode([]byte(`{"entries":[{"layer":1,"base":"openblas-gemm-im2col","variant":{"kernel":"` +
		string(make([]byte, 100)) + `","workers":99999},"sec":1e308,"default_sec":2}]}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.qsd")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCache(path)
		if err != nil {
			return // rejected: the correct outcome for garbage
		}
		// Whatever loaded must apply without panicking, and forged
		// entries must be skipped, not applied.
		tab := testTableF(net)
		applied, _ := got.Apply(tab, net)
		for _, a := range applied {
			if !tunable(primitives.ByID(a.Base)) {
				t.Fatalf("applied untunable primitive %v", a.Base)
			}
			if a.Layer <= 0 || a.Layer >= tab.NumLayers() {
				t.Fatalf("applied out-of-range layer %d", a.Layer)
			}
			if !a.Variant.valid() || a.Variant.IsDefault() {
				t.Fatalf("applied invalid variant %v", a.Variant)
			}
		}
	})
}

// testTableF is testTable without the *testing.T plumbing.
func testTableF(net *nn.Network) *lut.Table {
	tab := lut.New(net, primitives.ModeCPU)
	for i := 1; i < tab.NumLayers(); i++ {
		for _, p := range tab.Candidates(i) {
			tab.SetTime(i, p, 0.001*float64(i))
		}
	}
	return tab
}
