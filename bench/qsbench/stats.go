package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs must not be empty; it is not modified.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(max(rank(p, len(s)), 1), len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps p·n/100 that is whole in decimal, such as
// 99.9·10000/100, from rounding up past its rank in binary.
func rank(p float64, n int) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile in tailLevels that has at least
// ten samples above its nearest rank, and the value there. A sample too
// small for any of them reports its median (p = 50).
func tail(xs []float64) (p, v float64) {
	n := len(xs)
	for _, lvl := range tailLevels {
		if n-rank(lvl, n) >= 10 {
			return lvl, percentile(xs, lvl)
		}
	}
	return 50, median(xs)
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// splitmix is the SplitMix64 finalizer; mix folds it over vals to
// derive independent seeds from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(vals ...int64) int64 {
	h := uint64(0)
	for _, v := range vals {
		h = splitmix(h ^ uint64(v))
	}
	return int64(h >> 2) // non-negative, with headroom for +1
}
