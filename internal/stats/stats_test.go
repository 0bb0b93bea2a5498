package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"time"
)

func TestMedianMAD(t *testing.T) {
	cases := []struct {
		vals     []float64
		med, mad float64
	}{
		{nil, 0, 0},
		{[]float64{5}, 5, 0},
		{[]float64{1, 2, 3}, 2, 1},
		{[]float64{1, 2, 3, 100}, 2.5, 1},
		{[]float64{4, 4, 4, 4}, 4, 0},
	}
	for _, c := range cases {
		sorted := append([]float64(nil), c.vals...)
		sort.Float64s(sorted)
		med, mad := Median(sorted), MAD(sorted)
		if med != c.med || mad != c.mad {
			t.Errorf("Median, MAD(%v) = (%v, %v), want (%v, %v)", c.vals, med, mad, c.med, c.mad)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {95, 95 * time.Millisecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}} {
		if got := NearestRank(ds, tc.p); got != tc.want {
			t.Fatalf("p%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := NearestRank([]time.Duration(nil), 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

func TestMeanAndIQR(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
	// Nearest rank over ten values: the 25th percentile is element 2,
	// the 75th element 7.
	ten := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := IQR(ten); got != 5 {
		t.Errorf("IQR(0..9) = %v, want 5", got)
	}
	if got := IQR([]float64{4, 4, 4}); got != 0 {
		t.Errorf("IQR of a constant = %v, want 0", got)
	}
}

// TestPairedAlternatesOrder pins the schedule: pair i runs a first
// when i is even and b first when it is odd, and both calls get i.
func TestPairedAlternatesOrder(t *testing.T) {
	var order []string
	side := func(name string, v float64) func(int) (float64, error) {
		return func(i int) (float64, error) {
			order = append(order, name+string(rune('0'+i)))
			return v, nil
		}
	}
	if _, err := Paired(4, side("a", 2), side("b", 1)); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "b1", "a1", "a2", "b2", "b3", "a3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPairedClaimRule(t *testing.T) {
	seq := func(vals ...float64) func(int) (float64, error) {
		return func(i int) (float64, error) { return vals[i], nil }
	}
	const n = 10
	for _, tc := range []struct {
		name  string
		a, b  []float64
		wins  int
		gap   float64
		holds bool
	}{
		{
			name: "constant win",
			a:    []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
			b:    []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			wins: 10, gap: 1, holds: true,
		},
		{
			// Eight wins and two ties: ties count for neither side, and
			// 8/10 is short of the 9/10 rule.
			name: "ties count for neither",
			a:    []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
			b:    []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 2},
			wins: 8, gap: 1, holds: false,
		},
		{
			// Nine wins, but the baseline's own quartiles (elements 2
			// and 7 of its sorted runs) are 10 apart, wider than the
			// median gap of 1.
			name: "gap inside baseline spread",
			a:    []float64{10, 10, 10, 10, 10, 20, 20, 20, 20, 20},
			b:    []float64{9, 9, 9, 9, 9, 19, 19, 19, 19, 21},
			wins: 9, gap: 1, holds: false,
		},
		{
			name: "losing side",
			a:    []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			b:    []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
			gap:  -1, holds: false,
		},
	} {
		p, err := Paired(n, seq(tc.a...), seq(tc.b...))
		if err != nil {
			t.Fatal(err)
		}
		if p.N != n || p.Wins != tc.wins || p.Gap != tc.gap || p.Holds() != tc.holds {
			t.Errorf("%s: got %+v holds=%v, want wins %d gap %v holds %v",
				tc.name, p, p.Holds(), tc.wins, tc.gap, tc.holds)
		}
	}
	if (Pair{}).Holds() {
		t.Error("an empty comparison must not hold")
	}
}

func TestPairedStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	ok := func(int) (float64, error) { calls++; return 1, nil }
	failAt := func(i int) (float64, error) {
		if i == 2 {
			return 0, boom
		}
		return 1, nil
	}
	if _, err := Paired(10, ok, failAt); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 3 {
		t.Errorf("a ran %d times, want 3 (pairs 0-2, then stop)", calls)
	}
}
