package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/engine"
	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/tune"
)

// tunerFlags bundles the kernel-autotuner CLI flags. A package
// variable keeps the many positional runCtx test call sites unchanged;
// main() sets it from the parsed flags.
type tunerFlags struct {
	// autotune runs the variant search when no usable cache exists.
	autotune bool
	// budget is the per-(layer, base) measurement budget.
	budget int
	// cache is the durable tuned-variant cache file ("" = in-memory
	// only).
	cache string
}

var tunerCfg tunerFlags

// enabled reports whether any tuning work is requested.
func (t tunerFlags) enabled() bool { return t.autotune || t.cache != "" }

// applyTuning resolves the tuned-variant cache — loading a usable one
// from -tuner-cache, else (with -autotune) measuring a fresh one on the
// engine source — and feeds it into the table so the searches can
// select tuned kernels. src is nil when profiling ran on the
// simulator: cached tunings still apply, but fresh tuning needs the
// real engine. A corrupt or mismatched cache degrades to defaults (or
// a re-tune), never an error.
func applyTuning(ctx context.Context, ft faultFlags, net *nn.Network, tab *lut.Table, src *engine.Source, seed int64) error {
	tn := tunerCfg
	var cache *tune.Cache
	if tn.cache != "" {
		c, err := tune.LoadCache(tn.cache)
		// A budget change only matters when the caller can re-tune
		// (-autotune); cache-only consumers reuse any matching cache.
		switch {
		case err == nil && c.Network == net.Name && c.Mode == tab.Mode.String() && (!tn.autotune || c.Budget == tn.budget):
			cache = c
		case err == nil:
			fmt.Fprintf(os.Stderr, "qsdnn: tuner cache %s is for %s/%s budget %d; not reusable here\n",
				tn.cache, c.Network, c.Mode, c.Budget)
		case errors.Is(err, fs.ErrNotExist):
			// Fresh cache file: nothing to reuse yet.
		default:
			fmt.Fprintf(os.Stderr, "qsdnn: tuner cache %s unreadable (%v); falling back to defaults\n", tn.cache, err)
		}
	}
	if cache == nil {
		if !tn.autotune {
			return nil // cache-only mode with nothing usable: defaults
		}
		if src == nil {
			return errors.New("-autotune measures real kernels; use -engine -mode cpu")
		}
		opts := tune.DefaultOptions()
		opts.Budget = tn.budget
		opts.Robust = ft.policy()
		opts.Seed = seed
		var err error
		cache, err = tune.Tune(ctx, net, tab, tune.EngineMeasurer{Src: src}, opts)
		if err != nil {
			return err
		}
		if tn.cache != "" {
			if err := cache.Save(tn.cache); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "qsdnn: tuner cache written to %s\n", tn.cache)
		}
	}
	applied, skipped := cache.Apply(tab, net)
	if src != nil {
		eng := src.Engine()
		for _, a := range applied {
			eng.SetTuned(a.Layer, a.Base, a.Variant.Conv())
		}
	}
	st := cache.Stats
	fmt.Fprintf(os.Stderr, "qsdnn: autotune: %d tuned variant(s) applied, %d skipped; measured %d of %d generated",
		len(applied), skipped, st.Measured, st.Generated)
	if st.BestSpeedup > 0 {
		fmt.Fprintf(os.Stderr, ", best speedup %.2fx", st.BestSpeedup)
	}
	fmt.Fprintln(os.Stderr)
	return nil
}

// tunerVersionInfo prints the autotuner view for `qsdnn version`: the
// tunable knob space on this host and, when -tuner-cache names a
// readable cache, its recorded run statistics.
func tunerVersionInfo() {
	if tunerCfg.cache == "" {
		return
	}
	c, err := tune.LoadCache(tunerCfg.cache)
	if err != nil {
		fmt.Printf("tuner cache: %s (unreadable: %v)\n", tunerCfg.cache, err)
		return
	}
	fmt.Printf("tuner cache: %s\n", tunerCfg.cache)
	fmt.Printf("  network %s mode %s seed %d budget %d\n", c.Network, c.Mode, c.Seed, c.Budget)
	fmt.Printf("  %d tuned variant(s); measured %d of %d generated across %d pair(s), %d shortlist hit(s)\n",
		len(c.Entries), c.Stats.Measured, c.Stats.Generated, c.Stats.PairsTuned, c.Stats.ShortlistHits)
	if c.Stats.BestSpeedup > 0 {
		fmt.Printf("  best speedup %.2fx\n", c.Stats.BestSpeedup)
	}
	for _, e := range c.Entries {
		fmt.Printf("  layer %-3d %-24s -> %s (%.4f ms, default %.4f ms)\n",
			e.Layer, e.Base, e.Variant, e.Seconds*1e3, e.DefaultSec*1e3)
	}
}
