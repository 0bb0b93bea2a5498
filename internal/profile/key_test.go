package profile

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// refU01 is the seeded draw as first written: fmt formats "%d|%s",
// then "|%d" per number, into FNV-1a, then the splitmix64 finalizer.
func refU01(seed int64, key string, nums ...int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	for _, n := range nums {
		fmt.Fprintf(h, "|%d", n)
	}
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// FuzzKeyHash checks the backoff jitter and every fault-schedule
// decision against the fmt-formatted reference keys.
func FuzzKeyHash(f *testing.F) {
	f.Add(int64(0), "layer 1 (conv1) with armcl-gemm", "sample", 0, 0, 0)
	f.Add(int64(math.MaxInt64), "edge 3->4 (a -> b)", "edge", 1, 2, 3)
	f.Add(int64(math.MinInt64), "a|b/c", "output", -1, math.MaxInt, math.MinInt)
	f.Add(int64(-1), "", "", 7, -12345678901, 49)
	f.Add(int64(42), "\xff héllo", "x/y|z", 1<<40, 0, -3)
	f.Fuzz(func(t *testing.T, seed int64, what, kind string, a, b, c int) {
		if got, want := jitter(seed, what, a, b), refU01(seed, what, a, b); got != want {
			t.Fatalf("jitter = %v, want %v", got, want)
		}
		fs := NewFaultSource(nil, FaultConfig{Seed: seed})
		nums := []int{a, b, c}
		for n := 2; n <= 3; n++ {
			ms := measurement{kind: kind, nums: [3]int{a, b, c}, n: n}
			for _, decision := range []string{"perm", "stall", "trans", "burst", "nan", "spike"} {
				got := fs.roll(ms, decision, n)
				if want := refU01(seed, "fault|"+kind+"|"+decision, nums[:n]...); got != want {
					t.Fatalf("roll(%v, %s, %d) = %v, want %v", ms, decision, n, got, want)
				}
			}
		}
	})
}
