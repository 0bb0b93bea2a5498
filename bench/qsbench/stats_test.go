package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 99.5, 100},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{7}, 99, 7},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(tc.xs), tc.p, got, tc.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{10, 50}, // no tail level has ten samples beyond it
		{20, 50},
		{40, 75},   // rank 30, 10 beyond
		{100, 90},  // rank 90, 10 beyond; p95 has 5
		{199, 90},  // p95 rank 190 has 9 beyond
		{200, 95},  // p95 rank 190 has 10 beyond
		{1000, 99}, // p99 rank 990 has 10 beyond
		{9999, 99}, // p99.9 rank 9990 has 9 beyond
		{10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v := tail(xs)
		if p != tc.wantP {
			t.Errorf("tail of %d samples at p%v, want p%v", tc.n, p, tc.wantP)
		}
		if want := percentile(xs, p); v != want {
			t.Errorf("tail of %d samples = %v, want the p%v value %v", tc.n, v, p, want)
		}
	}
}
