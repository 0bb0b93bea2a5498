package gemm

// Rows are the lane-wise loops of the memory-bound kernels that ride
// the micro-kernel dispatch: ReLU, the per-channel BatchNorm affine of
// an NCHW plane, and the pad-1 3x3 depth-wise plane. Each Kernel
// carries one Rows value, so the CPUID probe, QSDNN_DISABLE_SIMD and
// ActiveKernel cover them exactly as they cover the GEMM tile: avx2-8x8
// carries AVX2 rows, every other variant the pure-Go rows below, which
// are the fallback and the reference.
//
// Bit-equality contract: every Rows implementation performs, per
// element, exactly the scalar operation sequence of the pure-Go rows,
// so all variants produce the same bits:
//
//   - ReLU zeroes an element only when the ordered comparison v < 0
//     holds (compare, then and-not), so -0 and every NaN pass through
//     unchanged. MAXPS would not do: it rewrites -0 and NaN.
//   - Affine computes v*scale, rounds it, then adds shift. No FMA.
//   - Depthwise3x3 starts from the bias and adds each valid tap in
//     r-major, q-minor order as a rounded product then an add. No FMA.
//
// Every product that feeds a sum is written float32(x*y): an explicit
// conversion forbids the compiler from fusing it into a multiply-add,
// which Go's arm64 backend otherwise does.
type Rows struct {
	// ReLU stores src[i], or +0 where src[i] < 0, into dst[i] for every
	// i < len(src). dst may be src itself.
	ReLU func(dst, src []float32)
	// Affine stores src[i]*scale + shift into dst[i] for every
	// i < len(src). dst may be src itself.
	Affine func(dst, src []float32, scale, shift float32)
	// Depthwise3x3 computes one 3x3 depth-wise plane with padding 1 at
	// stride 1 or 2: src is h x w, dst is ((h-1)/stride+1) x
	// ((w-1)/stride+1), k holds the nine taps row-major and b is the
	// bias. dst must not overlap src.
	Depthwise3x3 func(dst, src []float32, h, w, stride int, k []float32, b float32)
}

// goRows are the pure-Go rows: the fallback every build has and the
// reference every vector implementation is tested against.
var goRows = &Rows{ReLU: reluGo, Affine: affineGo, Depthwise3x3: depthwise3x3Go}

// ActiveRows returns the dispatched kernel's rows.
func ActiveRows() *Rows { return activeKernel().rows }

// VariantRows returns the rows the named kernel variant carries, or nil
// when no such variant is registered on this host. Tests use it to run
// every variant's rows in one process.
func VariantRows(name string) *Rows {
	for _, k := range variants {
		if k.Name == name {
			return k.rows
		}
	}
	return nil
}

func reluGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

func affineGo(dst, src []float32, scale, shift float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v*scale) + shift
	}
}

// depthwise3x3Go walks the plane one output row at a time. Each row
// sums only the kernel rows that fall inside the input, and each
// output only the columns that do, so no tap is ever tested against
// the padding; a window whose three rows and columns are all inside
// sums its nine taps unrolled.
func depthwise3x3Go(dst, src []float32, h, w, stride int, k []float32, b float32) {
	oh, ow := (h-1)/stride+1, (w-1)/stride+1
	dst, src, k = dst[:oh*ow], src[:h*w], k[:9]
	for y := 0; y < oh; y++ {
		iy := y*stride - 1
		r0, r1 := max(0, -iy), min(3, h-iy)
		depthwise3x3RowGo(dst[y*ow:(y+1)*ow], src[(iy+r0)*w:(iy+r1)*w], w, stride, k[r0*3:r1*3], b)
	}
}

// depthwise3x3RowGo computes one output row from the len(k)/3 input
// rows of width w in rows, whose kernel rows are k.
func depthwise3x3RowGo(dst, rows []float32, w, stride int, k []float32, b float32) {
	nr := len(k) / 3
	for x := range dst {
		ix := x*stride - 1
		q0, q1 := max(0, -ix), min(3, w-ix)
		sum := b
		if nr == 3 && q0 == 0 && q1 == 3 {
			a, m, z := rows[ix:ix+3:ix+3], rows[w+ix:w+ix+3:w+ix+3], rows[2*w+ix:2*w+ix+3:2*w+ix+3]
			sum += float32(k[0] * a[0])
			sum += float32(k[1] * a[1])
			sum += float32(k[2] * a[2])
			sum += float32(k[3] * m[0])
			sum += float32(k[4] * m[1])
			sum += float32(k[5] * m[2])
			sum += float32(k[6] * z[0])
			sum += float32(k[7] * z[1])
			sum += float32(k[8] * z[2])
			dst[x] = sum
			continue
		}
		for j := 0; j < nr; j++ {
			row, kr := rows[j*w:(j+1)*w], k[j*3:j*3+3]
			for q := q0; q < q1; q++ {
				sum += float32(kr[q] * row[ix+q])
			}
		}
		dst[x] = sum
	}
}
