package tune

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/lut"
	"repro/internal/nn"
	"repro/internal/pool"
	"repro/internal/primitives"
	"repro/internal/profile"
)

// Options bounds one tuning run.
type Options struct {
	// Budget is the maximum real measurements per (layer, base
	// primitive); the surrogate shortlists this many variants out of
	// the full space. Minimum effective value is 2 (the default
	// variant plus one challenger).
	Budget int
	// Samples is the robust-series sample count per measurement.
	Samples int
	// MeasureWorkers is the measurement fan-out. Results are collected
	// by variant index and folded in index order, so the tuned output
	// is byte-identical at any value (against a deterministic
	// measurer).
	MeasureWorkers int
	// Robust, when non-nil, applies the profiling layer's
	// timeout/retry/outlier policy to each measurement series.
	Robust *profile.Robust
	// Seed is recorded in the cache for provenance; the tuner itself
	// is deterministic by construction.
	Seed int64
}

// DefaultOptions returns the standard tuning budget.
func DefaultOptions() Options {
	return Options{Budget: 16, Samples: 3, MeasureWorkers: 1}
}

// Measurer times one (layer, base, variant) execution sample. The
// engine-backed implementation is EngineMeasurer; tests substitute
// synthetic deterministic cost models.
type Measurer interface {
	MeasureVariant(ctx context.Context, layer int, base *primitives.Primitive, v Variant, sample int) (float64, error)
}

// EngineMeasurer measures variants on the real engine's cached
// canonical activations.
type EngineMeasurer struct {
	Src *engine.Source
}

// MeasureVariant times one execution of the layer under the variant.
func (m EngineMeasurer) MeasureVariant(ctx context.Context, layer int, base *primitives.Primitive, v Variant, sample int) (float64, error) {
	_ = sample
	return m.Src.MeasureTuned(ctx, layer, base, v.Conv())
}

// Stats summarizes a tuning run for /statusz and `qsdnn version`.
type Stats struct {
	// PairsTuned counts the (layer, base primitive) pairs tuned.
	PairsTuned int `json:"pairs_tuned"`
	// Generated is the total variant-space size across pairs.
	Generated int `json:"variants_generated"`
	// Measured is how many variants were actually measured — the
	// surrogate pruned the rest.
	Measured int `json:"variants_measured"`
	// Failed counts measurements that errored (and were skipped).
	Failed int `json:"measure_failures,omitempty"`
	// Entries is how many tuned variants beat their default and were
	// recorded.
	Entries int `json:"entries"`
	// ShortlistHits counts recorded entries whose winning variant came
	// from the surrogate shortlist rather than the seed sweep — the
	// surrogate's hit rate is ShortlistHits/Entries.
	ShortlistHits int `json:"shortlist_hits"`
	// BestSpeedup is the largest default/tuned time ratio recorded.
	BestSpeedup float64 `json:"best_speedup,omitempty"`
}

// Bases returns the tunable base primitives in tuning order.
func Bases() []*primitives.Primitive {
	return []*primitives.Primitive{primitives.POpenIm2col, primitives.POpenIm2row, primitives.POpenKn2row}
}

// Tune runs the budgeted variant search for every tunable (layer,
// base) pair of the table and returns the resulting cache. The table
// supplies the candidate sets (a base degraded away by profiling is
// not tuned); it is not modified — call Cache.Apply to feed tunings
// into a table and an engine.
//
// Determinism: spaces are enumerated in fixed order, seeds are strided
// deterministically, the surrogate folds observations in variant-index
// order after each measurement barrier, and every tie breaks toward
// the lower variant index — so against a deterministic measurer the
// cache bytes are identical at any MeasureWorkers.
func Tune(ctx context.Context, net *nn.Network, tab *lut.Table, meas Measurer, opts Options) (*Cache, error) {
	if opts.Budget < 2 {
		opts.Budget = 2
	}
	if opts.Samples <= 0 {
		opts.Samples = 1
	}
	if opts.MeasureWorkers < 1 {
		opts.MeasureWorkers = 1
	}
	c := &Cache{
		Network: net.Name,
		Mode:    tab.Mode.String(),
		Seed:    opts.Seed,
		Budget:  opts.Budget,
	}
	for i := 1; i < net.Len(); i++ {
		l := net.Layers[i]
		for _, base := range Bases() {
			if !tab.IsCandidate(i, base.Idx) {
				continue
			}
			vars := Space(l, base)
			if len(vars) < 2 {
				continue
			}
			c.Stats.PairsTuned++
			c.Stats.Generated += len(vars)
			entry, ok, err := tuneOne(ctx, net, i, base, vars, meas, opts, &c.Stats)
			if err != nil {
				return nil, err
			}
			if ok {
				c.Entries = append(c.Entries, entry)
				c.Stats.Entries++
				if s := entry.DefaultSec / entry.Seconds; s > c.Stats.BestSpeedup {
					c.Stats.BestSpeedup = s
				}
			}
		}
	}
	return c, nil
}

// tunable reports whether p is one of Bases().
func tunable(p *primitives.Primitive) bool {
	for _, b := range Bases() {
		if b == p {
			return true
		}
	}
	return false
}

// tuneOne runs the seed-sweep + surrogate-shortlist loop for one
// (layer, base) pair and returns a cache entry when a non-default
// variant wins.
func tuneOne(ctx context.Context, net *nn.Network, layer int, base *primitives.Primitive, vars []Variant, meas Measurer, opts Options, stats *Stats) (Entry, bool, error) {
	budget := opts.Budget
	if budget > len(vars) {
		budget = len(vars)
	}
	// Seed sweep: a deterministic stride through the space, always
	// including index 0 (the default — the baseline every tuned time
	// is judged against).
	seedN := budget / 3
	if seedN < 2 {
		seedN = 2
	}
	if seedN > budget {
		seedN = budget
	}
	seeds := make([]int, 0, seedN)
	for j := 0; j < seedN; j++ {
		idx := j * len(vars) / seedN
		if len(seeds) > 0 && seeds[len(seeds)-1] == idx {
			continue
		}
		seeds = append(seeds, idx)
	}

	times := make(map[int]float64, budget)
	shortlisted := make(map[int]bool)
	sur := NewSurrogate(featureDim)
	measure := func(idxs []int) error {
		res := make([]float64, len(idxs))
		out := pool.RunContext(ctx, len(idxs), opts.MeasureWorkers, func(j int) {
			v := vars[idxs[j]]
			what := fmt.Sprintf("tune layer %d %s %s", layer, base.Name, v)
			sec, err := profile.RobustSeries(ctx, opts.Robust, what, opts.Samples, func(ctx context.Context, s int) (float64, error) {
				return meas.MeasureVariant(ctx, layer, base, v, s)
			})
			if err != nil || !lut.ValidSeconds(sec) || sec == 0 {
				res[j] = math.NaN()
				return
			}
			res[j] = sec
		})
		if err := out.Err(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Fold in index order after the barrier: byte-identical at any
		// MeasureWorkers.
		for j, idx := range idxs {
			stats.Measured++
			if math.IsNaN(res[j]) {
				stats.Failed++
				continue
			}
			times[idx] = res[j]
			sur.Observe(features(net.Layers[layer], base, vars[idx]), res[j])
		}
		return nil
	}

	if err := measure(seeds); err != nil {
		return Entry{}, false, err
	}

	// Surrogate shortlist, in rounds: rank every unmeasured variant by
	// predicted time, measure the best-looking few, refit, repeat until
	// the budget is spent. Refitting between rounds lets later rounds
	// exploit what earlier rounds learned.
	roundSize := budget / 4
	if roundSize < 2 {
		roundSize = 2
	}
	for rest := budget - len(seeds); rest > 0; {
		round := roundSize
		if round > rest {
			round = rest
		}
		type scored struct {
			idx  int
			pred float64
		}
		var cands []scored
		fitted := sur.Fit()
		for idx := range vars {
			if _, done := times[idx]; done {
				continue
			}
			p := 0.0
			if fitted {
				p = sur.Predict(features(net.Layers[layer], base, vars[idx]))
			}
			cands = append(cands, scored{idx, p})
		}
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].pred != cands[b].pred {
				return cands[a].pred < cands[b].pred
			}
			return cands[a].idx < cands[b].idx
		})
		if round > len(cands) {
			round = len(cands)
		}
		pick := make([]int, round)
		for j := 0; j < round; j++ {
			pick[j] = cands[j].idx
			shortlisted[cands[j].idx] = true
		}
		sort.Ints(pick)
		if err := measure(pick); err != nil {
			return Entry{}, false, err
		}
		rest -= round
	}

	defSec, ok := times[0]
	if !ok {
		return Entry{}, false, nil // default unmeasurable: nothing to judge against
	}
	bestIdx, bestSec := 0, defSec
	for idx := 1; idx < len(vars); idx++ {
		if sec, done := times[idx]; done && sec < bestSec {
			bestIdx, bestSec = idx, sec
		}
	}
	if bestIdx == 0 {
		return Entry{}, false, nil
	}
	if shortlisted[bestIdx] {
		stats.ShortlistHits++
	}
	return Entry{
		Layer:      layer,
		Base:       base.Name,
		Variant:    vars[bestIdx],
		Seconds:    bestSec,
		DefaultSec: defSec,
	}, true, nil
}
