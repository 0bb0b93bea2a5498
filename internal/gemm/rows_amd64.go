//go:build amd64

package gemm

// avx2Rows are the rows the avx2-8x8 and avx512-8x16 kernels carry
// (rows_amd64.s).
// Each wrapper bounds-checks the last element its asm call touches and
// leaves to the pure-Go row what the asm does not cover: ReLU's and
// Affine's tail of fewer than 8 elements, depth-wise planes narrower
// than two columns, and Gather2's partial panels at either end of a run
// (and any run into panels whose width is not a multiple of 8).
var avx2Rows = &Rows{ReLU: reluAVX2, Affine: affineAVX2, Depthwise3x3: depthwise3x3AVX2, Gather2: gather2AVX2}

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

// gather2RowAVX2 fills panels whole panel rows of 8*chunks values,
// next elements apart, eight values at a time: each eight are src[0],
// src[2], ..., src[14] of the 16 source values that start where the
// previous eight's ended.
//
//go:noescape
func gather2RowAVX2(dst *float32, next int, src *float32, panels, chunks int)

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

func gather2AVX2(dst []float32, o, nr, next int, src []float32, n int) {
	if nr%8 != 0 || n == 0 {
		gather2Go(dst, o, nr, next, src, n)
		return
	}
	dst, o = dst[o/nr*next:], o%nr
	if o > 0 { // the rest of the first panel
		h := min(n, nr-o)
		gather2Go(dst, o, nr, next, src, h)
		if n -= h; n == 0 {
			return
		}
		dst, src = dst[next:], src[2*h:]
	}
	// Whole panels whose 2*nr-value loads stay inside src; the last one
	// may need only 2*nr-1, and goes to the Go row with the partial panel.
	if panels := min(n/nr, len(src)/(2*nr)); panels > 0 {
		_ = dst[(panels-1)*next+nr-1]
		gather2RowAVX2(&dst[0], next, &src[0], panels, nr/8)
		if n -= nr * panels; n == 0 {
			return
		}
		dst, src = dst[panels*next:], src[2*nr*panels:]
	}
	gather2Go(dst, 0, nr, next, src, n)
}
