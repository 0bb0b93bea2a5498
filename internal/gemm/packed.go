package gemm

import "repro/internal/pool"

// Parallel / ParallelCfg — the tuned-BLAS stand-in. The classic
// three-level GEMM structure (Goto & van de Geijn): B is packed into
// NR-wide column panels, each MR-row strip of A is packed into a
// contiguous column-major panel, and an MR x NR register-tiled
// micro-kernel walks the two packed panels with unit stride, keeping
// the full output tile in registers across the whole k reduction (no
// loads or stores of C inside the loop). Packing plus register tiling
// is where the speedup over Naive comes from; the worker count only
// changes who computes which strip.
//
// One loop (blockedKernel) serves every call. By default it packs B
// whole, as a single (k x n) block; a tuned BlockConfig may split B
// into (KC x NC) cache blocks instead (see tuned.go).
//
// The pack geometry (MR, NR) is not fixed here: it comes from the
// dispatched Kernel descriptor (kernel.go), so the SSE 4x8, AVX2 8x8,
// NEON 8x8 and pure-Go kernels all flow through this one pipeline with
// no per-call ISA branching — the descriptor is read once per GEMM
// call.
//
// Correctness contract: with B packed whole, every output element
// C[i,j] is accumulated in strictly ascending p order into a single
// register, then added to C[i,j] once. Each MR-row strip is computed by
// the same strip function with the same packed inputs regardless of the
// worker count, and strip ownership is exclusive, so Parallel's output
// is bit-identical at any worker count — and, because per-element
// rounding never depends on the tile geometry (see Kernel), identical
// across every dispatched kernel too. It differs from Naive only by
// float32 rounding of the deferred C addition.

// packBBlock packs the (kcb x ncb) block of row-major B (k x n) rooted
// at (p0, j0) into ceil(ncb/nr) panels of nr columns, kcb rows each,
// zero-padded past column j0+ncb, so the micro-kernel reads each panel
// with unit stride. dst must have kcb*roundUp(ncb, nr) elements.
func packBBlock(n, p0, kcb, j0, ncb, nr int, b, dst []float32) {
	np := (ncb + nr - 1) / nr
	for pj := 0; pj < np; pj++ {
		c0 := j0 + pj*nr
		panel := dst[pj*kcb*nr : (pj+1)*kcb*nr]
		w := min(nr, j0+ncb-c0)
		for p := 0; p < kcb; p++ {
			row := b[(p0+p)*n+c0 : (p0+p)*n+c0+w]
			copy(panel[p*nr:p*nr+w], row)
			for jj := w; jj < nr; jj++ {
				panel[p*nr+jj] = 0
			}
		}
	}
}

// packStripABlock packs rows [i0, i0+mr) x cols [p0, p0+kcb) of
// row-major A (m x k) column-major: dst[p*mr+ii] = A[i0+ii][p0+p],
// zero-padded past row m. dst must have kcb*mr elements.
func packStripABlock(m, k, i0, mr, p0, kcb int, a, dst []float32) {
	rows := min(mr, m-i0)
	for ii := 0; ii < rows; ii++ {
		arow := a[(i0+ii)*k+p0 : (i0+ii)*k+p0+kcb]
		for p, v := range arow {
			dst[p*mr+ii] = v
		}
	}
	for ii := rows; ii < mr; ii++ {
		for p := 0; p < kcb; p++ {
			dst[p*mr+ii] = 0
		}
	}
}

// stripBlock computes the contribution of the (p0, kcb) x (j0, ncb)
// block to C rows [i0, min(i0+MR, m)): it packs its own A strip block
// into apk (kcb*MR elements) and adds one partial sum per output
// element. This is the one unit of work the workers partition; every
// worker count runs exactly this code on exactly these inputs, which is
// what makes the output worker-count-invariant.
func stripBlock(kn *Kernel, m, n, k, i0, p0, kcb, j0, ncb int, a, bpk, c, apk []float32) {
	mr, nr := kn.MR, kn.NR
	packStripABlock(m, k, i0, mr, p0, kcb, a, apk)
	rows := min(mr, m-i0)
	np := (ncb + nr - 1) / nr
	var tbuf [maxTileElems]float32
	t := tbuf[:mr*nr]
	for pj := 0; pj < np; pj++ {
		kn.micro(kcb, apk, bpk[pj*kcb*nr:(pj+1)*kcb*nr], t)
		c0 := j0 + pj*nr
		cols := min(nr, j0+ncb-c0)
		for ii := 0; ii < rows; ii++ {
			crow := c[(i0+ii)*n+c0 : (i0+ii)*n+c0+cols]
			trow := t[ii*nr : ii*nr+cols]
			for jj := range crow {
				crow[jj] += trow[jj]
			}
		}
	}
}

// parallelFloorFlops is the problem size (counted as 2*m*n*k flops)
// below which Parallel runs the packed path inline instead of fanning
// out: at small shapes the pack-share handoff and goroutine wakeups
// cost more than the multiply itself (BENCH_kernels.json had
// parallel8/128 at 235µs vs 217µs single-threaded). 2*160³ sits just
// under the floor; the 192-cube (14.2 Mflop) is comfortably past the
// measured crossover. Exclusive strip ownership makes the fan-out
// bit-identical either way, so the threshold is purely a latency knob.
const parallelFloorFlops = 1 << 23 // 8.4 Mflop

// minStripsPerWorker is the smallest strip chunk worth waking a worker
// for: a worker that owns a single strip spends a pack-share handoff
// and a wakeup on one micro-kernel sweep, which the crossover
// measurements put below break-even.
const minStripsPerWorker = 2

// effectiveWorkers resolves the strip fan-out Parallel actually uses.
// Three thresholds, each a pure function of the shape so the choice is
// deterministic:
//
//   - workers never exceeds maxprocs: goroutines beyond the schedulable
//     parallelism only add handoff and wakeup latency (the measured
//     parallel8-vs-packed regression at 512 on a 1-CPU host — 5.71 ms
//     vs 5.63 ms — was exactly this, 8 goroutines time-slicing 1 core);
//   - a problem below parallelFloorFlops runs inline (see above);
//   - each worker must own at least minStripsPerWorker strips, so thin
//     fan-outs shrink instead of waking workers for one strip each.
//
// Exclusive strip ownership makes every choice bit-identical, so these
// are purely latency thresholds — falling back to the sequential packed
// path never changes the result.
func effectiveWorkers(m, n, k, strips, workers, maxprocs int) int {
	if workers > maxprocs {
		workers = maxprocs
	}
	if workers > strips {
		workers = strips
	}
	if 2*m*n*k < parallelFloorFlops {
		return 1
	}
	if workers > 1 && strips < workers*minStripsPerWorker {
		workers = strips / minStripsPerWorker
		if workers < 1 {
			workers = 1
		}
	}
	return workers
}

// Parallel computes C = A*B + C for row-major A (m x k), B (k x n),
// C (m x n) with the packed, register-tiled algorithm, partitioning the
// MR-row strips of C across at most workers goroutines from a bounded
// pool. B is packed once and shared read-only; each worker owns an
// exclusive set of strips and its own A-strip buffer, so there is no
// write sharing and the result is bit-identical at any worker count.
// workers <= 1, a degenerate shape, or a problem below
// parallelFloorFlops runs inline with no goroutines; workers beyond
// GOMAXPROCS or beyond one per minStripsPerWorker strips are clamped
// (see effectiveWorkers) — over-subscription only adds latency.
func Parallel(m, n, k int, a, b, c []float32, workers int) {
	blockedKernel(activeKernel(), m, n, k, a, b, c, workers, 0, 0)
}

// blockedKernel is the packed GEMM loop behind Parallel and ParallelCfg:
// for each (NC, KC) block of B, pack it once, then partition the MR-row
// strips of C across workers. kc <= 0 (or >= k) and nc <= 0 (or >= n)
// select one block covering all of B, the default full-k pipeline.
// Blocks are processed sequentially (ascending j0, then ascending p0)
// with a completion barrier per block, and each strip is owned by
// exactly one worker within a block, so every output element
// accumulates its per-block partial sums in the same order at any
// worker count — the result is bit-identical to itself for every worker
// setting, though a split reduction is not bit-identical to the
// one-block path.
func blockedKernel(kn *Kernel, m, n, k int, a, b, c []float32, workers, kc, nc int) {
	checkDims("A", a, m*k)
	checkDims("B", b, k*n)
	checkDims("C", c, m*n)
	if m == 0 || n == 0 || k == 0 {
		return // C += A*B adds nothing when the reduction is empty
	}
	mr, nr := kn.MR, kn.NR
	if kc <= 0 || kc > k {
		kc = k
	}
	if nc <= 0 || nc > n {
		nc = n
	}
	nc = (nc + nr - 1) / nr * nr
	strips := (m + mr - 1) / mr
	workers = effectiveWorkers(m, n, k, strips, workers, pool.DefaultWorkers())
	bpk := make([]float32, kc*((nc+nr-1)/nr)*nr)
	var apk []float32
	if workers <= 1 {
		apk = make([]float32, kc*mr)
	}
	for j0 := 0; j0 < n; j0 += nc {
		ncb := min(nc, n-j0)
		for p0 := 0; p0 < k; p0 += kc {
			kcb := min(kc, k-p0)
			packBBlock(n, p0, kcb, j0, ncb, nr, b, bpk)
			if workers <= 1 {
				for s := 0; s < strips; s++ {
					stripBlock(kn, m, n, k, s*mr, p0, kcb, j0, ncb, a, bpk, c, apk)
				}
				continue
			}
			// One pool job per worker, each claiming a contiguous chunk
			// of strips: chunk boundaries depend only on (strips,
			// workers), never on scheduling, and each job reuses one
			// A-strip buffer.
			pool.Run(workers, workers, func(w int) {
				lo := w * strips / workers
				hi := (w + 1) * strips / workers
				wapk := make([]float32, kcb*mr)
				for s := lo; s < hi; s++ {
					stripBlock(kn, m, n, k, s*mr, p0, kcb, j0, ncb, a, bpk, c, wapk)
				}
			})
		}
	}
}
