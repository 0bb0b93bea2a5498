package stats

import (
	"hash/fnv"
	"math"
	"strconv"
	"testing"
)

// TestKeyMatchesFNV: every Key method feeds the bytes hash/fnv's
// FNV-1a would be given, and none allocates.
func TestKeyMatchesFNV(t *testing.T) {
	h := fnv.New64a()
	k := NewKey()
	for _, s := range []string{"", "a|b", "/", "\xff héllo"} {
		h.Write([]byte(s))
		k = k.Str(s)
	}
	for _, n := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		h.Write([]byte(strconv.FormatInt(n, 10)))
		k = k.Int(n)
	}
	for _, n := range []uint64{0, math.MaxUint64} {
		h.Write([]byte(strconv.FormatUint(n, 10)))
		k = k.Uint(n)
	}
	h.Write([]byte{'|'})
	k = k.Byte('|')
	if k.Sum() != h.Sum64() {
		t.Fatalf("Key = %#x, fnv = %#x", k.Sum(), h.Sum64())
	}
	if u := k.Unit(); u < 0 || u >= 1 {
		t.Fatalf("Unit = %v, want [0, 1)", u)
	}
	allocs := testing.AllocsPerRun(100, func() {
		k = NewKey().Uint(math.MaxUint64).Byte('/').Str("meas").Int(math.MinInt64)
	})
	if allocs != 0 {
		t.Fatalf("Key allocates %v times per key, want 0", allocs)
	}
}
