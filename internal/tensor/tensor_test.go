package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShapeElems(t *testing.T) {
	tests := []struct {
		s    Shape
		want int
	}{
		{Shape{1, 3, 224, 224}, 150528},
		{Shape{1, 1, 1, 1}, 1},
		{Shape{2, 16, 8, 8}, 2048},
	}
	for _, tc := range tests {
		if got := tc.s.Elems(); got != tc.want {
			t.Errorf("Elems(%v) = %d, want %d", tc.s, got, tc.want)
		}
		if got := tc.s.Bytes(); got != tc.want*4 {
			t.Errorf("Bytes(%v) = %d, want %d", tc.s, got, tc.want*4)
		}
	}
}

func TestShapeValid(t *testing.T) {
	if !(Shape{1, 2, 3, 4}).Valid() {
		t.Error("positive shape should be valid")
	}
	for _, s := range []Shape{{0, 2, 3, 4}, {1, 0, 3, 4}, {1, 2, 0, 4}, {1, 2, 3, 0}, {-1, 2, 3, 4}} {
		if s.Valid() {
			t.Errorf("shape %v should be invalid", s)
		}
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{1, 3, 224, 224}).String(); got != "1x3x224x224" {
		t.Errorf("String() = %q", got)
	}
}

func TestNewPanicsOnInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid shape should panic")
		}
	}()
	New(Shape{0, 1, 1, 1}, NCHW)
}

func TestNewFromLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFrom with wrong length should panic")
		}
	}()
	NewFrom(Shape{1, 1, 2, 2}, NCHW, make([]float32, 3))
}

func TestIndexNCHW(t *testing.T) {
	tt := New(Shape{2, 3, 4, 5}, NCHW)
	// NCHW linear index: ((n*C+c)*H+h)*W + w
	if got := tt.Index(1, 2, 3, 4); got != ((1*3+2)*4+3)*5+4 {
		t.Errorf("Index = %d", got)
	}
	// Every coordinate maps to a distinct in-range index.
	seen := map[int]bool{}
	s := tt.Shape()
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					i := tt.Index(n, c, h, w)
					if i < 0 || i >= s.Elems() || seen[i] {
						t.Fatalf("bad or duplicate index %d for (%d,%d,%d,%d)", i, n, c, h, w)
					}
					seen[i] = true
				}
			}
		}
	}
}

func TestIndexNHWC(t *testing.T) {
	tt := New(Shape{2, 3, 4, 5}, NHWC)
	if got := tt.Index(1, 2, 3, 4); got != ((1*4+3)*5+4)*3+2 {
		t.Errorf("Index = %d", got)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	for _, l := range Layouts() {
		tt := New(Shape{1, 2, 3, 4}, l)
		tt.Set(0, 1, 2, 3, 42)
		if got := tt.At(0, 1, 2, 3); got != 42 {
			t.Errorf("layout %v: At = %v, want 42", l, got)
		}
	}
}

func TestLayoutConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(Shape{2, 5, 7, 3}, NCHW)
	a.FillRandom(rng, 1)
	b := a.ToLayout(NHWC)
	if b.Layout() != NHWC {
		t.Fatalf("layout = %v", b.Layout())
	}
	c := b.ToLayout(NCHW)
	if MaxAbsDiff(a, c) != 0 {
		t.Error("NCHW -> NHWC -> NCHW round trip changed values")
	}
	// Same logical contents even across layouts.
	if MaxAbsDiff(a, b) != 0 {
		t.Error("logical contents differ after conversion")
	}
}

func TestToLayoutNoCopyWhenSame(t *testing.T) {
	a := New(Shape{1, 1, 2, 2}, NCHW)
	if a.ToLayout(NCHW) != a {
		t.Error("ToLayout with same layout should return receiver")
	}
}

// TestConvertOverwritesDestination converts into a destination full
// of NaN, in every layout pair: each element must land where ToLayout
// puts it, and Convert must return the destination.
func TestConvertOverwritesDestination(t *testing.T) {
	src := New(Shape{2, 3, 4, 5}, NCHW)
	src.FillRandom(rand.New(rand.NewSource(3)), 1)
	for _, from := range Layouts() {
		x := src.ToLayout(from)
		for _, to := range Layouts() {
			dst := New(x.Shape(), to)
			dst.Fill(float32(math.NaN()))
			if Convert(dst, x) != dst {
				t.Fatalf("%v->%v: Convert did not return its destination", from, to)
			}
			if d := MaxAbsDiff(x, dst); !(d == 0) {
				t.Errorf("%v->%v: converted values differ by %v", from, to, d)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Convert into a different shape should panic")
		}
	}()
	Convert(New(Shape{1, 3, 4, 5}, NHWC), src)
}

func TestCloneIsDeep(t *testing.T) {
	a := New(Shape{1, 1, 2, 2}, NCHW)
	a.Fill(3)
	b := a.Clone()
	b.Set(0, 0, 0, 0, 9)
	if a.At(0, 0, 0, 0) != 3 {
		t.Error("Clone shares storage with original")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := New(Shape{1, 2, 3, 4}, NCHW)
	b := New(Shape{1, 2, 3, 4}, NCHW)
	a.FillRandom(rand.New(rand.NewSource(7)), 0.5)
	b.FillRandom(rand.New(rand.NewSource(7)), 0.5)
	if MaxAbsDiff(a, b) != 0 {
		t.Error("same seed should give same contents")
	}
	for _, v := range a.Data() {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("value %v outside scale", v)
		}
	}
}

func TestAllClose(t *testing.T) {
	a := New(Shape{1, 1, 1, 2}, NCHW)
	b := New(Shape{1, 1, 1, 2}, NCHW)
	b.Set(0, 0, 0, 1, 0.01)
	if !AllClose(a, b, 0.011) {
		t.Error("should be close at tol 0.011")
	}
	if AllClose(a, b, 0.009) {
		t.Error("should not be close at tol 0.009")
	}
}

func TestMaxAbsDiffShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	MaxAbsDiff(New(Shape{1, 1, 1, 1}, NCHW), New(Shape{1, 1, 1, 2}, NCHW))
}

// Property: for any valid small shape, conversion preserves every element.
func TestLayoutConversionProperty(t *testing.T) {
	f := func(n, c, h, w uint8, seed int64) bool {
		s := Shape{int(n%3) + 1, int(c%5) + 1, int(h%6) + 1, int(w%6) + 1}
		a := New(s, NCHW)
		a.FillRandom(rand.New(rand.NewSource(seed)), 2)
		return MaxAbsDiff(a, a.ToLayout(NHWC).ToLayout(NCHW)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLayoutString(t *testing.T) {
	if NCHW.String() != "NCHW" || NHWC.String() != "NHWC" {
		t.Error("layout names wrong")
	}
	if Layout(99).String() != "Layout(?)" {
		t.Error("unknown layout name wrong")
	}
}
