// Package tensor provides the dense float32 tensor type used by the
// inference engine, together with the memory layouts that acceleration
// primitives disagree about (NCHW vs NHWC) and the conversions between
// them. Layout mismatches between consecutive layers are the root cause
// of the compatibility penalties that make per-layer-greedy primitive
// selection sub-optimal, so this package is the foundation of the whole
// search problem.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Shape describes a 4-D activation tensor (N, C, H, W). Fully-connected
// activations use H = W = 1. N is the batch size; the paper (and this
// reproduction) uses N = 1 throughout inference-latency experiments.
type Shape struct {
	N, C, H, W int
}

// Elems returns the number of elements the shape holds.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Bytes returns the float32 byte footprint of the shape.
func (s Shape) Bytes() int { return s.Elems() * 4 }

// Valid reports whether all dimensions are strictly positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// Equal reports whether two shapes match in every dimension.
func (s Shape) Equal(o Shape) bool { return s == o }

// Tensor is a dense float32 tensor with an explicit memory layout.
// Data is stored in a single contiguous slice; the layout determines
// how (n, c, h, w) coordinates map to a linear index.
type Tensor struct {
	shape  Shape
	layout Layout
	data   []float32
}

// New allocates a zero-filled tensor with the given shape and layout.
func New(shape Shape, layout Layout) *Tensor {
	if !shape.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", shape))
	}
	return &Tensor{shape: shape, layout: layout, data: make([]float32, shape.Elems())}
}

// NewFrom wraps an existing slice. The slice length must match the shape.
func NewFrom(shape Shape, layout Layout, data []float32) *Tensor {
	if len(data) != shape.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)",
			len(data), shape, shape.Elems()))
	}
	return &Tensor{shape: shape, layout: layout, data: data}
}

// Shape returns the tensor's shape.
func (t *Tensor) Shape() Shape { return t.shape }

// Layout returns the tensor's memory layout.
func (t *Tensor) Layout() Layout { return t.layout }

// Data returns the backing slice. Callers must respect the layout.
func (t *Tensor) Data() []float32 { return t.data }

// Index returns the linear index of (n, c, h, w) under the tensor's layout.
func (t *Tensor) Index(n, c, h, w int) int {
	s := t.shape
	switch t.layout {
	case NCHW:
		return ((n*s.C+c)*s.H+h)*s.W + w
	case NHWC:
		return ((n*s.H+h)*s.W+w)*s.C + c
	default:
		panic("tensor: unknown layout " + t.layout.String())
	}
}

// Strides returns the distance in Data between neighbouring elements
// along each of N, C, H and W under the tensor's layout, so that
// (n, c, h, w) lives at n*sn + c*sc + h*sh + w*sw. Loops that walk a
// tensor in either layout index through them instead of calling At.
func (t *Tensor) Strides() (sn, sc, sh, sw int) {
	s := t.shape
	switch t.layout {
	case NCHW:
		return s.C * s.H * s.W, s.H * s.W, s.W, 1
	case NHWC:
		return s.H * s.W * s.C, 1, s.W * s.C, s.C
	default:
		panic("tensor: unknown layout " + t.layout.String())
	}
}

// At returns the element at (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 { return t.data[t.Index(n, c, h, w)] }

// Set assigns the element at (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float32) { t.data[t.Index(n, c, h, w)] = v }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: t.shape, layout: t.layout, data: d}
}

// FillRandom fills the tensor with values drawn uniformly from
// [-scale, scale] using the given seeded source, so model weights are
// reproducible across runs.
func (t *Tensor) FillRandom(rng *rand.Rand, scale float32) {
	for i := range t.data {
		t.data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ToLayout returns a tensor with identical logical contents in the
// requested layout. If the layout already matches, the receiver is
// returned unchanged (no copy); otherwise the result is a fresh tensor.
func (t *Tensor) ToLayout(l Layout) *Tensor {
	if t.layout == l {
		return t
	}
	return Convert(&Tensor{shape: t.shape, layout: l, data: make([]float32, len(t.data))}, t)
}

// Convert writes src's logical contents into dst in dst's layout and
// returns dst, overwriting every element; the shapes must match and the
// two must not share memory. Between equal layouts it is a copy.
func Convert(dst, src *Tensor) *Tensor {
	if !dst.shape.Equal(src.shape) {
		panic(fmt.Sprintf("tensor: cannot convert %v into %v", src.shape, dst.shape))
	}
	if dst.layout == src.layout {
		copy(dst.data, src.data)
		return dst
	}
	s := src.shape
	// Within a sample, pixel i = h*W + w of channel c sits at c*HW + i
	// in NCHW and at i*C + c in NHWC: read the source contiguously and
	// scatter each value to its place in the destination.
	hw := s.H * s.W
	for n := 0; n < s.N; n++ {
		from := src.data[n*s.C*hw : (n+1)*s.C*hw]
		to := dst.data[n*s.C*hw : (n+1)*s.C*hw]
		if dst.layout == NHWC {
			for c := 0; c < s.C; c++ {
				for i, v := range from[c*hw : (c+1)*hw] {
					to[i*s.C+c] = v
				}
			}
			continue
		}
		for i := 0; i < hw; i++ {
			for c, v := range from[i*s.C : (i+1)*s.C] {
				to[c*hw+i] = v
			}
		}
	}
	return dst
}

// MaxAbsDiff returns the maximum absolute element-wise difference
// between two tensors with the same shape, regardless of layout.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.shape.Equal(b.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	var maxd float64
	s := a.shape
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					d := math.Abs(float64(a.At(n, c, h, w)) - float64(b.At(n, c, h, w)))
					if d > maxd {
						maxd = d
					}
				}
			}
		}
	}
	return maxd
}
