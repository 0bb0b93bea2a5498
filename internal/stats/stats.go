// Package stats is the one place this module reduces repeated
// measurements to judged numbers: the mean, the median, the
// nearest-rank percentile, the median absolute deviation and the
// interquartile range, and Paired, the alternating pair comparison
// that decides whether one measured side beats another. Key, the
// seeded key hash, is where the module's deterministic draws come
// from.
//
// The order statistics take their input sorted ascending: every caller
// sorts once and reuses the order.
package stats

import (
	"cmp"
	"math"
	"sort"
)

// MADSigma scales a raw median absolute deviation to an estimate of a
// Gaussian's standard deviation (1/Φ⁻¹(3/4)).
const MADSigma = 1.4826

// Mean returns the arithmetic mean of vals, summed in order; NaN when
// vals is empty.
func Mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Median returns the middle element of sorted, or the mean of its two
// middle elements when the count is even; 0 when sorted is empty.
func Median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// NearestRank returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank: element p/100·n rounded to the nearest rank, clamped
// to the slice. The zero value when sorted is empty.
func NearestRank[T cmp.Ordered](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// MAD returns the raw (unscaled) median absolute deviation of sorted
// about its Median. Multiply by MADSigma for a sigma estimate.
func MAD(sorted []float64) float64 {
	med := Median(sorted)
	dev := make([]float64, len(sorted))
	for i, v := range sorted {
		dev[i] = math.Abs(v - med)
	}
	sort.Float64s(dev)
	return Median(dev)
}

// IQR returns the interquartile range of sorted: its nearest-rank 75th
// percentile minus its nearest-rank 25th.
func IQR(sorted []float64) float64 {
	return NearestRank(sorted, 75) - NearestRank(sorted, 25)
}

// Pair is the outcome of Paired: a baseline side A against a candidate
// side B, where lower is better.
type Pair struct {
	// N is how many pairs ran.
	N int
	// Wins counts pairs where B measured lower than A; a tie is no
	// win.
	Wins int
	// MedianA and MedianB are each side's Median.
	MedianA, MedianB float64
	// Gap is the Median over pairs of A − B: positive when B is lower.
	Gap float64
	// IQRA and IQRB are each side's IQR.
	IQRA, IQRB float64
}

// Holds applies the claim rule: B won at least 9 of every 10 pairs,
// and the median gap is wider than the baseline side's IQR.
func (p Pair) Holds() bool {
	return p.N > 0 && 10*p.Wins >= 9*p.N && p.Gap > p.IQRA
}

// Paired measures a and b alternately n times and reduces the pairs
// to a Pair. Pair i runs a first when i is even and b first when it is
// odd, so neither side always runs warm or always runs second; each
// call receives its pair index. The first error stops the run and is
// returned.
func Paired(n int, a, b func(i int) (float64, error)) (Pair, error) {
	p := Pair{N: n}
	as, bs, gaps := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		var x, y float64
		var err error
		if i%2 == 0 {
			if x, err = a(i); err == nil {
				y, err = b(i)
			}
		} else if y, err = b(i); err == nil {
			x, err = a(i)
		}
		if err != nil {
			return Pair{}, err
		}
		as[i], bs[i], gaps[i] = x, y, x-y
		if x > y {
			p.Wins++
		}
	}
	sort.Float64s(as)
	sort.Float64s(bs)
	sort.Float64s(gaps)
	p.MedianA, p.MedianB, p.Gap = Median(as), Median(bs), Median(gaps)
	p.IQRA, p.IQRB = IQR(as), IQR(bs)
	return p, nil
}
