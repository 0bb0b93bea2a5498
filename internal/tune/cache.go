package tune

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/store"
)

// Entry records one tuned winner: the variant that beat the default
// configuration of a base primitive on a layer, and both measured
// times.
type Entry struct {
	// Layer is the network layer index.
	Layer int `json:"layer"`
	// Base is the stable name of the base primitive the variant
	// parameterizes.
	Base string `json:"base"`
	// Variant is the winning configuration.
	Variant Variant `json:"variant"`
	// Seconds is the variant's measured time.
	Seconds float64 `json:"sec"`
	// DefaultSec is the default configuration's measured time.
	DefaultSec float64 `json:"default_sec"`
}

// Cache is the durable result of one tuning run. It serializes to
// canonical JSON inside the store envelope (CRC-framed, atomic
// replace), so a cache file round-trips byte-identically and a torn or
// corrupt file is detected at load instead of misconfiguring kernels.
type Cache struct {
	// Network is the architecture the tunings were measured for.
	Network string `json:"network"`
	// Mode is the processor mode of the table the tuner consulted.
	Mode string `json:"mode"`
	// Seed is the engine weight seed the measurements ran under.
	Seed int64 `json:"seed"`
	// Budget is the per-(layer, base) measurement budget used.
	Budget int `json:"budget"`
	// Entries holds the tuned winners, sorted by (Layer, Base).
	Entries []Entry `json:"entries"`
	// Stats summarizes the run.
	Stats Stats `json:"stats"`
}

// Marshal serializes the cache canonically: entries sorted by
// (Layer, Base), fixed field order. Equal caches yield equal bytes.
func (c *Cache) Marshal() ([]byte, error) {
	sort.SliceStable(c.Entries, func(a, b int) bool {
		if c.Entries[a].Layer != c.Entries[b].Layer {
			return c.Entries[a].Layer < c.Entries[b].Layer
		}
		return c.Entries[a].Base < c.Entries[b].Base
	})
	return json.Marshal(c)
}

// Save writes the cache durably (store envelope, atomic temp+fsync+
// rename).
func (c *Cache) Save(path string) error {
	data, err := c.Marshal()
	if err != nil {
		return err
	}
	return store.Write(path, data)
}

// LoadCache reads a cache written by Save. Corrupt, torn or truncated
// files return an error (store.ErrCorrupt underneath) — callers fall
// back to untuned defaults, they never panic.
func LoadCache(path string) (*Cache, error) {
	payload, err := store.Read(path)
	if err != nil {
		return nil, err
	}
	var c Cache
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("tune: cache payload: %w", err)
	}
	return &c, nil
}

// Apply feeds the cache into a LUT. A tuning is the execution config
// of a base primitive at one layer, so it prices that base's own
// entry: when an entry's time is no slower than the base's time at its
// layer, the base's time becomes the entry's and the entry is returned
// as applied, for engine.Engine.SetTuned via its Conv() form; a slower
// entry leaves the base untouched and counts as skipped. The config
// shares its base's library, layout and processor, so every penalty
// already prices it, and an exact search over the tuned table picks
// what one over the base and its tuned config as separate candidates
// would: the faster of the two. The <= makes a second Apply a no-op.
//
// Entries that no longer fit — unknown or untunable base, layer out of
// range, base not a candidate of the layer, invalid times, default or
// insane variants — are skipped and counted, never fatal: a stale or
// forged cache degrades to fewer tunings, it cannot corrupt a table.
func (c *Cache) Apply(tab *lut.Table, net *nn.Network) (applied []Applied, skipped int) {
	if c.Network != net.Name || c.Mode != tab.Mode.String() {
		return nil, len(c.Entries)
	}
	for _, e := range c.Entries {
		base, ok := primitives.ByName(e.Base)
		if !ok || !tunable(base) ||
			e.Layer <= 0 || e.Layer >= tab.NumLayers() || !tab.IsCandidate(e.Layer, base.Idx) ||
			!e.Variant.valid() || e.Variant.IsDefault() ||
			!lut.ValidSeconds(e.Seconds) || !lut.ValidSeconds(e.DefaultSec) ||
			e.Seconds > tab.Time(e.Layer, base.Idx) {
			skipped++
			continue
		}
		tab.SetTime(e.Layer, base.Idx, e.Seconds)
		applied = append(applied, Applied{Layer: e.Layer, Base: base.Idx, Variant: e.Variant})
	}
	return applied, skipped
}

// Applied is one (layer, base, variant) assignment produced by Apply.
type Applied struct {
	// Layer is the network layer index.
	Layer int
	// Base is the primitive the variant configures at the layer.
	Base primitives.ID
	// Variant is the execution configuration.
	Variant Variant
}
