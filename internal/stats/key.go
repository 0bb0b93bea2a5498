package stats

import "strconv"

// Key is a 64-bit FNV-1a hash under construction: the hash of the
// bytes fed to it so far. It is the one key hash behind every seeded
// draw of the module (the simulator's fabrication and measurement
// noise, the profiler's backoff jitter and fault schedule, the canary
// sampler). Each method returns the hash extended by a value's bytes
// and allocates nothing; numbers are fed as the decimal digits fmt's
// %d writes, so a key hashes exactly the bytes its fmt format would.
//
// The byte layouts the callers feed are a contract: one changed byte
// changes every simulated table, golden and digest built from them.
type Key uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewKey returns the hash of no bytes.
func NewKey() Key { return fnvOffset64 }

// Byte feeds one byte.
func (k Key) Byte(b byte) Key { return (k ^ Key(b)) * fnvPrime64 }

// Str feeds the bytes of s.
func (k Key) Str(s string) Key {
	for i := 0; i < len(s); i++ {
		k = (k ^ Key(s[i])) * fnvPrime64
	}
	return k
}

// Int feeds n in decimal, as fmt's %d formats it.
func (k Key) Int(n int64) Key {
	var buf [20]byte
	return k.bytes(strconv.AppendInt(buf[:0], n, 10))
}

// Uint feeds n in decimal, as fmt's %d formats it.
func (k Key) Uint(n uint64) Key {
	var buf [20]byte
	return k.bytes(strconv.AppendUint(buf[:0], n, 10))
}

func (k Key) bytes(b []byte) Key {
	for _, c := range b {
		k = (k ^ Key(c)) * fnvPrime64
	}
	return k
}

// Sum returns the hash.
func (k Key) Sum() uint64 { return uint64(k) }

// Unit maps the hash to a uniform value in [0, 1) through the
// splitmix64 finalizer, which decorrelates nearby FNV states.
func (k Key) Unit() float64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
