//go:build amd64

package gemm

// avx2Rows are the rows the avx2-8x8 kernel carries (rows_amd64.s).
// Each wrapper bounds-checks the last element its asm call touches and
// leaves to the pure-Go row what the asm does not cover: ReLU's and
// Affine's tail of fewer than 8 elements, and depth-wise planes
// narrower than two columns.
var avx2Rows = &Rows{ReLU: reluAVX2, Affine: affineAVX2, Depthwise3x3: depthwise3x3AVX2}

// reluRowAVX2 applies ReLU to n elements, n a positive multiple of 8.
//
//go:noescape
func reluRowAVX2(dst, src *float32, n int)

// affineRowAVX2 stores src[i]*scale + shift for n elements, n a
// positive multiple of 8.
//
//go:noescape
func affineRowAVX2(dst, src *float32, n int, scale, shift float32)

// depthwise3x3RowS1AVX2 and depthwise3x3RowS2AVX2 compute one output
// row of a pad-1 3x3 depth-wise plane at stride 1 and 2: x points at
// column 0 of the first of nk valid input rows (each w wide), k at the
// kernel row that reads it. The row is its left column, inner interior
// columns and, when right is 1, a right column whose third tap falls
// in the padding.
//
//go:noescape
func depthwise3x3RowS1AVX2(dst, x, k *float32, nk, w, inner, right int, b float32)

//go:noescape
func depthwise3x3RowS2AVX2(dst, x, k *float32, nk, w, inner, right int, b float32)

func reluAVX2(dst, src []float32) {
	dst = dst[:len(src)]
	n := len(src) &^ 7
	if n > 0 {
		_ = dst[n-1]
		reluRowAVX2(&dst[0], &src[0], n)
	}
	reluGo(dst[n:], src[n:])
}

func affineAVX2(dst, src []float32, scale, shift float32) {
	dst = dst[:len(src)]
	n := len(src) &^ 7
	if n > 0 {
		_ = dst[n-1]
		affineRowAVX2(&dst[0], &src[0], n, scale, shift)
	}
	affineGo(dst[n:], src[n:], scale, shift)
}

func depthwise3x3AVX2(dst, src []float32, h, w, stride int, k []float32, b float32) {
	if w < 2 || stride < 1 || stride > 2 {
		depthwise3x3Go(dst, src, h, w, stride, k, b)
		return
	}
	oh, ow := (h-1)/stride+1, (w-1)/stride+1
	_, _, _ = dst[oh*ow-1], src[h*w-1], k[8]
	inner, right := ow-1, 0
	if (ow-1)*stride+1 >= w {
		inner, right = ow-2, 1
	}
	for y := 0; y < oh; y++ {
		iy := y*stride - 1
		r0, r1 := max(0, -iy), min(3, h-iy)
		if stride == 1 {
			depthwise3x3RowS1AVX2(&dst[y*ow], &src[(iy+r0)*w], &k[r0*3], r1-r0, w, inner, right, b)
		} else {
			depthwise3x3RowS2AVX2(&dst[y*ow], &src[(iy+r0)*w], &k[r0*3], r1-r0, w, inner, right, b)
		}
	}
}
