package gemm

import (
	"math"
	"math/rand"
	"testing"
)

// rowEdges are the float32 classes a row must carry bit for bit:
// both zeros, the smallest and largest denormals and normals, the
// infinities, and quiet and signalling NaNs with extreme payloads, each
// with either sign.
var rowEdges = []uint32{0, 1, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, 0x7f800000, 0x7f800001, 0x7fbfffff, 0x7fc00000, 0x7fffffff}

// edgeSlice returns n values cycling through rowEdges of both signs,
// every third one replaced by a random finite value in [-1, 1].
func edgeSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		b := rowEdges[i/2%len(rowEdges)] | uint32(i%2)<<31
		s[i] = math.Float32frombits(b)
		if i%3 == 2 {
			s[i] = rng.Float32()*2 - 1
		}
	}
	return s
}

// TestRowVariantsBitEqual runs every registered variant's rows, the
// AVX2 ones included when this host has them, against the pure-Go rows:
// ReLU and Affine at every length up to 80 and every start offset mod
// 8, in place and out of place; Depthwise3x3 at stride 1 and 2 on
// every plane up to 20x20 and the MobileNet plane widths.
// TestRowsStayInsideTheirPlane checks that none reads or writes outside
// its slices.
func TestRowVariantsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, name := range KernelVariants() {
		rows := VariantRows(name)
		for n := 0; n <= 80; n++ {
			for off := 0; off < 8; off++ {
				src := edgeSlice(rng, n+off)[off:]
				want := make([]float32, n)
				reluGo(want, src)
				got := make([]float32, n)
				rows.ReLU(got, src)
				if !bitEqual(want, got) {
					t.Fatalf("%s ReLU n=%d off=%d: not bit-identical to the pure-Go row", name, n, off)
				}
				inPlace := append([]float32(nil), src...)
				if rows.ReLU(inPlace, inPlace); !bitEqual(want, inPlace) {
					t.Fatalf("%s ReLU n=%d off=%d in place: not bit-identical", name, n, off)
				}
				sc, sh := float32(rng.Float32()*4)-2, float32(rng.Float32()*2)-1
				affineGo(want, src, sc, sh)
				rows.Affine(got, src, sc, sh)
				if !bitEqual(want, got) {
					t.Fatalf("%s Affine n=%d off=%d: not bit-identical to the pure-Go row", name, n, off)
				}
				inPlace = append(inPlace[:0], src...)
				if rows.Affine(inPlace, inPlace, sc, sh); !bitEqual(want, inPlace) {
					t.Fatalf("%s Affine n=%d off=%d in place: not bit-identical", name, n, off)
				}
			}
		}
		dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 28, 33, 56, 112}
		for _, h := range dims {
			for _, w := range dims {
				if h > 20 && w > 20 && h != w {
					continue
				}
				for _, stride := range []int{1, 2} {
					src := randomSlice(rng, h*w)
					k := randomSlice(rng, 9)
					b := rng.Float32()*2 - 1
					oh, ow := (h-1)/stride+1, (w-1)/stride+1
					want := make([]float32, oh*ow)
					depthwise3x3Go(want, src, h, w, stride, k, b)
					got := make([]float32, oh*ow)
					rows.Depthwise3x3(got, src, h, w, stride, k, b)
					if !bitEqual(want, got) {
						t.Fatalf("%s Depthwise3x3 %dx%d stride %d: not bit-identical to the pure-Go row", name, h, w, stride)
					}
				}
			}
		}
	}
}
