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
// changes who packs and computes which part of C (see split).
//
// One loop (blockedKernel) serves every call. By default it packs B in
// full-k n-blocks of at most panelCols columns; a tuned BlockConfig may
// set its own (KC x NC) cache blocks instead (see tuned.go). B may be a
// row-major matrix or a Packer that writes each block straight into the
// panel layout, the way a conv lowering gathers its patch matrix
// without materialising it (ParallelPacker). Every buffer the loop
// works in comes from one caller-sized scratch slice (ScratchLen).
//
// The pack geometry (MR, NR) is not fixed here: it comes from the
// dispatched Kernel descriptor (kernel.go), so the SSE 4x8, AVX2 8x8,
// NEON 8x8 and pure-Go kernels all flow through this one pipeline with
// no per-call ISA branching — the descriptor is read once per GEMM
// call.
//
// Correctness contract: with B packed in full-k blocks, every output
// element C[i,j] is accumulated in strictly ascending p order into a
// single register, then added to C[i,j] once; which n-block holds
// column j changes nothing about that sum. Each MR-row strip of each
// block is computed by the same strip function with the same packed
// inputs regardless of the worker count, and the workers own disjoint
// parts of C, so Parallel's output is bit-identical at any worker
// count — and, because per-element rounding never depends on the tile
// geometry (see Kernel), identical across every dispatched kernel too.
// It differs from Naive only by float32 rounding of the deferred C
// addition.

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
// block to the MR-row strips [lo, hi) of C: for each strip it packs the
// A strip block into the front of ws (kcb*MR elements), reduces each
// tile into the back of ws (MR*NR elements) and adds one partial sum
// per output element. This is the one unit of work the workers
// partition; every worker count runs exactly this code on exactly
// these inputs, which is what makes the output worker-count-invariant.
// ws is the worker's slice of the caller's scratch: a stack tile would
// escape, because micro is a func value.
func stripBlock(kn *Kernel, m, n, k, lo, hi, p0, kcb, j0, ncb int, a, bpk, c, ws []float32) {
	mr, nr := kn.MR, kn.NR
	apk, t := ws[:kcb*mr], ws[len(ws)-mr*nr:]
	np := (ncb + nr - 1) / nr
	for i0 := lo * mr; i0 < hi*mr; i0 += mr {
		packStripABlock(m, k, i0, mr, p0, kcb, a, apk)
		rows := min(mr, m-i0)
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

// effectiveWorkers resolves the strip fan-out over one shared B block.
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

// panelCols is the default n-block width of the packed B panel: with
// no tuned NC, B is packed and multiplied panelCols columns at a time,
// each block carrying the full k reduction. It bounds the pack buffer
// at k*panelCols elements, where packing B whole would need k*n (a
// 27 x 12544 panel for mobilenet's first conv), and keeps the block
// cache-resident while every MR-row strip of A streams past it.
// Splitting only n leaves each output element's full-k, ascending-p
// register sum untouched, so the width never changes a bit of C. A
// tuned BlockConfig.NC overrides it.
const panelCols = 256

// Packer supplies B to the packed GEMM without B existing as a matrix.
// PackB writes the (kcb x ncb) block of the logical row-major B rooted
// at row p0, column j0 into dst in the panel layout packBBlock
// produces: ceil(ncb/nr) panels of nr columns by kcb rows, p-major,
// zero-padded past column j0+ncb. It must write every element of
// dst[:kcb*roundUp(ncb, nr)], which arrives holding stale values.
type Packer interface {
	PackB(p0, kcb, j0, ncb, nr int, dst []float32)
}

// Parallel computes C = A*B + C for row-major A (m x k), B (k x n),
// C (m x n) with the packed, register-tiled algorithm, on at most
// workers goroutines from a bounded pool. B is packed one
// panelCols-wide block at a time; when it spans several blocks each
// worker packs and multiplies its own run of columns, otherwise the
// workers share the one packed block and split its MR-row strips (see
// split). Each worker owns an exclusive part of C and its own buffers,
// so there is no write sharing and the result is bit-identical at any
// worker count. workers <= 1, a degenerate shape, or a problem below
// parallelFloorFlops runs inline with no goroutines; workers beyond
// GOMAXPROCS, or beyond one per minStripsPerWorker strips of a shared
// block, are clamped (see effectiveWorkers) — over-subscription only
// adds latency.
func Parallel(m, n, k int, a, b, c []float32, workers int) {
	blockedKernel(activeKernel(), m, n, k, a, b, nil, c, workers, 0, 0, nil)
}

// blocking resolves the (kc, nc) block shape blockedKernel packs B in
// for kernel kn: kc <= 0 (or > k) is the full reduction, nc <= 0 is
// panelCols, and nc is clamped to n, then rounded up to kn.NR.
func blocking(kn *Kernel, n, k, kc, nc int) (int, int) {
	if kc <= 0 || kc > k {
		kc = k
	}
	if nc <= 0 {
		nc = panelCols
	}
	nc = min(nc, n)
	return kc, (nc + kn.NR - 1) / kn.NR * kn.NR
}

// split resolves the fan-out blockedKernel uses and how its workers
// share the product. When B spans several n-blocks (n > nc), each
// worker takes its own contiguous run of nr-wide column panels and packs
// and multiplies it alone, in nc-wide blocks: one fan-out per call, and
// the B gather runs on every worker. When one n-block holds all of B,
// the workers share each packed block and split its MR-row strips
// instead (see effectiveWorkers). Either way every output element keeps
// the same block-by-block sum, so the choice never changes a bit.
func split(kn *Kernel, m, n, k, nc, workers, maxprocs int) (w int, byCols bool) {
	if n <= nc {
		strips := (m + kn.MR - 1) / kn.MR
		return max(effectiveWorkers(m, n, k, strips, workers, maxprocs), 1), false
	}
	w = min(workers, maxprocs, (n+kn.NR-1)/kn.NR)
	if 2*m*n*k < parallelFloorFlops {
		w = 1
	}
	return max(w, 1), w > 1
}

// scratchLayout returns how blockedKernel lays out its scratch under
// kernel kn, a (kc, nc) block shape and a split: the shared packed B
// block first (none when each worker packs its own columns), then per
// worker its own B block when byCols, one packed A strip and one
// register tile.
func scratchLayout(kn *Kernel, kc, nc int, byCols bool) (bpk, perWorker int) {
	bpk, perWorker = kc*nc, kc*kn.MR+kn.MR*kn.NR
	if byCols {
		return 0, bpk + perWorker
	}
	return bpk, perWorker
}

// ScratchLen returns the float32 elements of scratch ParallelCfg and
// ParallelPacker need for an (m x k) by (k x n) product at the given
// worker count under cfg. It sizes for the micro-kernel cfg.Kernel
// names, whose MR and NR set the panel rounding, and for the widest
// fan-out the call could take (GOMAXPROCS only ever narrows it), so the
// size is a function of its arguments alone.
func ScratchLen(m, n, k, workers int, cfg BlockConfig) int {
	if m == 0 || n == 0 || k == 0 {
		return 0
	}
	kn := kernelByName(cfg.Kernel)
	if cfg.Workers > 0 {
		workers = cfg.Workers
	}
	kc, nc := blocking(kn, n, k, cfg.KC, cfg.NC)
	workers, byCols := split(kn, m, n, k, nc, workers, workers)
	bpk, per := scratchLayout(kn, kc, nc, byCols)
	return bpk + workers*per
}

// blockedKernel is the packed GEMM loop behind Parallel, ParallelCfg
// and ParallelPacker: for each (nc, kc) block of B (see blocking), pack
// it once — from the matrix b, or through pk when pk is non-nil — then
// multiply every MR-row strip of C by it. Blocks are processed in
// ascending j0, then ascending p0, so every output element accumulates
// its per-block partial sums in the same order whichever way split
// shares the work: by column runs, each worker owning its output
// columns, or by strips of one shared block, with a completion barrier
// per block. The result is bit-identical at every worker setting.
// Splitting n alone keeps it bit-identical to one block; a split
// reduction (kc < k) is not. scratch, when nil, is allocated; otherwise
// it must hold the ScratchLen elements of the call and may hold
// anything.
func blockedKernel(kn *Kernel, m, n, k int, a, b []float32, pk Packer, c []float32, workers, kc, nc int, scratch []float32) {
	checkDims("A", a, m*k)
	if pk == nil {
		checkDims("B", b, k*n)
	}
	checkDims("C", c, m*n)
	if m == 0 || n == 0 || k == 0 {
		return // C += A*B adds nothing when the reduction is empty
	}
	kc, nc = blocking(kn, n, k, kc, nc)
	workers, byCols := split(kn, m, n, k, nc, workers, pool.DefaultWorkers())
	bsize, per := scratchLayout(kn, kc, nc, byCols)
	if scratch == nil {
		scratch = make([]float32, bsize+workers*per)
	}
	checkDims("scratch", scratch, bsize+workers*per)
	bpk, ws := scratch[:bsize], scratch[bsize:bsize+workers*per]
	strips := (m + kn.MR - 1) / kn.MR
	switch {
	case workers == 1:
		columns(kn, m, n, k, 0, n, kc, nc, a, b, pk, c, bpk, ws)
	case byCols:
		panels := (n + kn.NR - 1) / kn.NR
		pool.Run(workers, workers, func(w int) {
			j0, j1 := w*panels/workers*kn.NR, min((w+1)*panels/workers*kn.NR, n)
			own := ws[w*per : (w+1)*per]
			columns(kn, m, n, k, j0, j1, kc, nc, a, b, pk, c, own[:kc*nc], own[kc*nc:])
		})
	default:
		for j0 := 0; j0 < n; j0 += nc {
			ncb := min(nc, n-j0)
			for p0 := 0; p0 < k; p0 += kc {
				kcb := min(kc, k-p0)
				packB(n, p0, kcb, j0, ncb, kn.NR, b, pk, bpk)
				fanOut(kn, m, n, k, strips, workers, p0, kcb, j0, ncb, a, bpk, c, ws)
			}
		}
	}
}

// columns multiplies the output columns [j0, j1) on one goroutine: each
// (nc, kc) block of B in them is packed into bpk and multiplied into
// every MR-row strip of C, working in ws (one A strip and one tile).
func columns(kn *Kernel, m, n, k, j0, j1, kc, nc int, a, b []float32, pk Packer, c, bpk, ws []float32) {
	strips := (m + kn.MR - 1) / kn.MR
	for ; j0 < j1; j0 += nc {
		ncb := min(nc, j1-j0)
		for p0 := 0; p0 < k; p0 += kc {
			kcb := min(kc, k-p0)
			packB(n, p0, kcb, j0, ncb, kn.NR, b, pk, bpk)
			stripBlock(kn, m, n, k, 0, strips, p0, kcb, j0, ncb, a, bpk, c, ws)
		}
	}
}

// packB packs one block of B into bpk: through pk when it is non-nil,
// else from the row-major matrix b.
func packB(n, p0, kcb, j0, ncb, nr int, b []float32, pk Packer, bpk []float32) {
	if pk != nil {
		pk.PackB(p0, kcb, j0, ncb, nr, bpk)
		return
	}
	packBBlock(n, p0, kcb, j0, ncb, nr, b, bpk)
}

// fanOut runs one packed block's strips as one pool job per worker,
// each claiming a contiguous chunk: chunk boundaries depend only on
// (strips, workers), never on scheduling, and worker w works in its own
// per-worker slice of ws.
func fanOut(kn *Kernel, m, n, k, strips, workers, p0, kcb, j0, ncb int, a, bpk, c, ws []float32) {
	per := len(ws) / workers
	pool.Run(workers, workers, func(w int) {
		lo, hi := w*strips/workers, (w+1)*strips/workers
		stripBlock(kn, m, n, k, lo, hi, p0, kcb, j0, ncb, a, bpk, c, ws[w*per:(w+1)*per])
	})
}
