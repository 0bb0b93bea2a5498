package gemm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

func maxDiff(a, b []float32) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(float64(a[i] - b[i])); v > d {
			d = v
		}
	}
	return d
}

func TestNaiveKnownValues(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	Naive(2, 2, 2, a, b, c)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestNaiveAccumulates(t *testing.T) {
	a := []float32{1}
	b := []float32{2}
	c := []float32{10}
	Naive(1, 1, 1, a, b, c)
	if c[0] != 12 {
		t.Errorf("accumulation: c = %v, want 12", c[0])
	}
}

func TestGemv(t *testing.T) {
	// [1 2; 3 4] * [5; 6] = [17; 39]
	a := []float32{1, 2, 3, 4}
	x := []float32{5, 6}
	y := make([]float32, 2)
	Gemv(2, 2, a, x, y)
	if y[0] != 17 || y[1] != 39 {
		t.Errorf("y = %v, want [17 39]", y)
	}
}

func TestGemvMatchesGemmNx1(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n := 37, 53
	a := randomSlice(rng, m*n)
	x := randomSlice(rng, n)
	y1 := make([]float32, m)
	y2 := make([]float32, m)
	Gemv(m, n, a, x, y1)
	Naive(m, 1, n, a, x, y2)
	if d := maxDiff(y1, y2); d > 1e-4 {
		t.Errorf("gemv differs from gemm by %g", d)
	}
}

func TestTranspose(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5, 6} // 2x3
	dst := make([]float32, 6)
	Transpose(2, 3, src, dst)
	want := []float32{1, 4, 2, 5, 3, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(r, c uint8, seed int64) bool {
		rows, cols := int(r%10)+1, int(c%10)+1
		rng := rand.New(rand.NewSource(seed))
		src := randomSlice(rng, rows*cols)
		mid := make([]float32, rows*cols)
		back := make([]float32, rows*cols)
		Transpose(rows, cols, src, mid)
		Transpose(cols, rows, mid, back)
		return maxDiff(src, back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDimCheckPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short slice should panic")
		}
	}()
	Naive(2, 2, 2, []float32{1}, make([]float32, 4), make([]float32, 4))
}
