package health

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// refHash01 is the canary draw as first written: fmt formats the key
// into FNV-1a, then the splitmix64 finalizer.
func refHash01(seed, round int64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|canary|%d", seed, round)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// FuzzKeyHash checks the canary sampler's draw against the
// fmt-formatted reference key.
func FuzzKeyHash(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(math.MaxInt64), int64(1))
	f.Add(int64(math.MinInt64), int64(-1))
	f.Add(int64(-7), int64(math.MaxInt64))
	f.Add(int64(11), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, seed, round int64) {
		if got, want := hash01(seed, round), refHash01(seed, round); got != want {
			t.Fatalf("hash01(%d, %d) = %v, want %v", seed, round, got, want)
		}
	})
}
