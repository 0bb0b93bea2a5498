package gemm

import "repro/internal/pool"

// Parallel / ParallelCfg — the tuned-BLAS stand-in. The classic
// three-level GEMM structure (Goto & van de Geijn): B is cut into
// NR-wide column panels and A into MR-row strips, and an MR x NR
// register-tiled micro-kernel walks one strip and one panel, keeping
// the full output tile in registers across the whole k reduction (no
// loads or stores of C inside the loop). Register tiling is where the
// speedup over Naive comes from; the worker count only changes who
// computes which part of C (see split).
//
// The micro-kernel reads both operands through strides (Kernel.micro),
// so only what is not already in its layout gets copied:
//
//   - A strips are read in place from row-major A (lda = k). Only the
//     last strip, when m is not a multiple of MR, is copied into a
//     zero-padded buffer first.
//   - A row-major B is read in place too (ldb = n). Only the last
//     panel, when n is not a multiple of NR, is packed zero-padded. B
//     supplied by a Packer — a conv lowering gathering its patch
//     matrix without materialising it (ParallelPacker) — is packed
//     block by block into NR-wide panels (ldb = NR).
//   - A full MR x NR tile is added straight into C (ldc = n). An edge
//     tile goes to a tile buffer and only its in-range corner is added.
//   - A bias (see Bias) is never written into C first: a tile's first
//     k-block stores bias + sum, read from the bias where it sits (one
//     value per row, or a vector per column), and later k-blocks add
//     into C as usual.
//
// A variant whose kernel reads packed operands only (Kernel.packs,
// neon-8x8) has every strip and panel packed instead.
//
// One loop (blockedKernel) serves every call. By default it walks B in
// full-k n-blocks of at most panelCols columns; a tuned BlockConfig may
// set its own (KC x NC) cache blocks instead (see tuned.go). Every
// buffer the loop works in comes from one caller-sized scratch slice
// (ScratchLen). The tile geometry (MR, NR) is not fixed here: it comes
// from the dispatched Kernel descriptor (kernel.go), so the SSE 4x8,
// AVX2 8x8, AVX-512 8x16, NEON 8x8 and pure-Go kernels all flow
// through this one pipeline with no per-call ISA branching.
//
// Correctness contract: with full-k blocks, every output element
// C[i,j] is accumulated in strictly ascending p order into a single
// register from +0, then added to its start once — C[i,j] itself, or
// the bias, in one add, exactly as when the bias is first copied into
// C and the sum added to it; which n-block holds
// column j, and whether its operands were read in place or from a
// copy, changes nothing about that sum. Each MR-row strip of each block
// is computed by the same strip function with the same inputs
// regardless of the worker count, and the workers own disjoint parts
// of C, so Parallel's output is bit-identical at any worker count —
// and, because per-element rounding never depends on the tile geometry
// (see Kernel), identical across every dispatched kernel too. It
// differs from Naive only by float32 rounding of the deferred C
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
// zero-padded past row m, for kernels that read packed strips
// (Kernel.packs). dst must have kcb*mr elements.
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

// copyStripA copies rows [i0, m) x cols [p0, p0+kcb) of row-major A
// (m x k) row-major into dst (row stride kcb) and zeroes the rows up to
// mr, so a strided kernel can read the last, ragged strip as a full
// one. dst must have kcb*mr elements.
func copyStripA(m, k, i0, mr, p0, kcb int, a, dst []float32) {
	rows := m - i0
	for ii := 0; ii < rows; ii++ {
		copy(dst[ii*kcb:(ii+1)*kcb], a[(i0+ii)*k+p0:])
	}
	clear(dst[rows*kcb : mr*kcb])
}

// stripBlock computes the contribution of the (p0, kcb) x (j0, ncb)
// block to the MR-row strips [lo, hi) of C. Each strip of A is read in
// place, or from the front of ws when it must be copied (the last,
// ragged strip, or every strip for a packing kernel). Each full panel
// of a row-major B (b non-nil) is read in place, any other from its
// slot in bpk (see packB). A full tile is stored straight into C; an
// edge tile is reduced into the back of ws (MR*NR elements) and its
// in-range corner stored into C. Either store adds the tile to its
// start: the bias on the first k-block (p0 == 0) when there is one, C
// itself otherwise. This is the one unit of work the workers
// partition; every worker count runs exactly this code on exactly
// these inputs, which is what makes the output worker-count-invariant.
// The edge tile lives in ws, not on the stack: micro is a func value,
// so a stack tile would escape.
func stripBlock(kn *Kernel, m, n, k, lo, hi, p0, kcb, j0, ncb int, a, b, bpk, c []float32, bias Bias, ws []float32) {
	mr, nr := kn.MR, kn.NR
	apk, t := ws[:kcb*mr], ws[len(ws)-mr*nr:]
	np := (ncb + nr - 1) / nr
	inPlace := b != nil && !kn.packs
	biased := p0 == 0 && bias.V != nil
	for i0 := lo * mr; i0 < hi*mr; i0 += mr {
		rows := min(mr, m-i0)
		as, lda := a[i0*k+p0:], k
		switch {
		case kn.packs:
			packStripABlock(m, k, i0, mr, p0, kcb, a, apk)
			as = apk
		case rows < mr:
			copyStripA(m, k, i0, mr, p0, kcb, a, apk)
			as, lda = apk, kcb
		}
		for pj := 0; pj < np; pj++ {
			c0 := j0 + pj*nr
			cols := min(nr, j0+ncb-c0)
			bs, ldb := bpk[pj*kcb*nr:], nr
			if inPlace && cols == nr {
				bs, ldb = b[p0*n+c0:], n
			}
			ct := c[i0*n+c0:]
			st := start{v: ct, rs: n, cs: 1}
			switch {
			case biased && bias.PerColumn:
				st = start{v: bias.V[c0:], cs: 1}
			case biased:
				st = start{v: bias.V[i0:], rs: 1}
			}
			if rows == mr && cols == nr {
				kn.micro(kcb, as, lda, bs, ldb, ct, n, st)
				continue
			}
			kn.micro(kcb, as, lda, bs, ldb, t, nr, start{})
			storeTile(rows, cols, nr, t, ct, n, st)
		}
	}
}

// parallelFloorFlops is the problem size (counted as 2*m*n*k flops)
// below which Parallel runs the packed path inline instead of fanning
// out: at small shapes the pack-share handoff and goroutine wakeups
// cost more than the multiply itself (parallel8/128 at 235µs vs 217µs
// single-threaded; EXPERIMENTS.md, "One perf ledger"). 2*160³ sits just
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

// Bias is the value a packed GEMM's output starts from. The zero value
// starts from C: C = A*B + C. With V set the call computes
// C = bias + A*B, C's prior contents unread: element (i, j) starts from
// V[i], one value per row of C, or from V[j] when PerColumn is set, one
// per column. Each element gets the bias in one add to its full sum (to
// its first k-block's sum under KC blocking), so the result is
// bit-identical to filling C with the bias and calling with a zero Bias.
type Bias struct {
	V         []float32
	PerColumn bool
}

// size is the number of values the bias of an m x n C holds.
func (b Bias) size(m, n int) int {
	if b.PerColumn {
		return n
	}
	return m
}

// fill sets the m x n matrix c to the bias alone: the product of an
// empty reduction.
func (b Bias) fill(m, n int, c []float32) {
	for i := 0; i < m; i++ {
		row := c[i*n : (i+1)*n]
		if b.PerColumn {
			copy(row, b.V[:n])
			continue
		}
		for j := range row {
			row[j] = b.V[i]
		}
	}
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
	blockedKernel(activeKernel(), m, n, k, a, b, nil, c, Bias{}, workers, 0, 0, nil)
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
// reduction (kc < k) is not. A bias starts each element's first
// block (see Bias). scratch, when nil, is allocated; otherwise it must
// hold the ScratchLen elements of the call and may hold anything.
func blockedKernel(kn *Kernel, m, n, k int, a, b []float32, pk Packer, c []float32, bias Bias, workers, kc, nc int, scratch []float32) {
	checkDims("A", a, m*k)
	if pk == nil {
		checkDims("B", b, k*n)
	}
	checkDims("C", c, m*n)
	if bias.V != nil {
		checkDims("bias", bias.V, bias.size(m, n))
	}
	if m == 0 || n == 0 || k == 0 {
		if bias.V != nil {
			bias.fill(m, n, c) // an empty reduction leaves the bias
		}
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
		columns(kn, m, n, k, 0, n, kc, nc, a, b, pk, c, bias, bpk, ws)
	case byCols:
		panels := (n + kn.NR - 1) / kn.NR
		pool.Run(workers, workers, func(w int) {
			j0, j1 := w*panels/workers*kn.NR, min((w+1)*panels/workers*kn.NR, n)
			own := ws[w*per : (w+1)*per]
			columns(kn, m, n, k, j0, j1, kc, nc, a, b, pk, c, bias, own[:kc*nc], own[kc*nc:])
		})
	default:
		for j0 := 0; j0 < n; j0 += nc {
			ncb := min(nc, n-j0)
			for p0 := 0; p0 < k; p0 += kc {
				kcb := min(kc, k-p0)
				packB(kn, n, p0, kcb, j0, ncb, b, pk, bpk)
				fanOut(kn, m, n, k, strips, workers, p0, kcb, j0, ncb, a, b, bpk, c, bias, ws)
			}
		}
	}
}

// columns multiplies the output columns [j0, j1) on one goroutine: for
// each (nc, kc) block of B in them it packs what is not read in place
// into bpk and multiplies the block into every MR-row strip of C,
// working in ws (one A strip and one tile).
func columns(kn *Kernel, m, n, k, j0, j1, kc, nc int, a, b []float32, pk Packer, c []float32, bias Bias, bpk, ws []float32) {
	strips := (m + kn.MR - 1) / kn.MR
	for ; j0 < j1; j0 += nc {
		ncb := min(nc, j1-j0)
		for p0 := 0; p0 < k; p0 += kc {
			kcb := min(kc, k-p0)
			packB(kn, n, p0, kcb, j0, ncb, b, pk, bpk)
			stripBlock(kn, m, n, k, 0, strips, p0, kcb, j0, ncb, a, b, bpk, c, bias, ws)
		}
	}
}

// packB fills the panels of one block of B that stripBlock does not
// read in place, each in its slot of bpk: every panel through pk when
// it is non-nil, every panel of the row-major matrix b for a packing
// kernel, else only b's last panel, when it is ragged.
func packB(kn *Kernel, n, p0, kcb, j0, ncb int, b []float32, pk Packer, bpk []float32) {
	nr := kn.NR
	switch tail := ncb % nr; {
	case pk != nil:
		pk.PackB(p0, kcb, j0, ncb, nr, bpk)
	case kn.packs:
		packBBlock(n, p0, kcb, j0, ncb, nr, b, bpk)
	case tail > 0:
		full := ncb - tail
		packBBlock(n, p0, kcb, j0+full, tail, nr, b, bpk[full*kcb:])
	}
}

// fanOut runs one block's strips as one pool job per worker, each
// claiming a contiguous chunk: chunk boundaries depend only on
// (strips, workers), never on scheduling, and worker w works in its own
// per-worker slice of ws.
func fanOut(kn *Kernel, m, n, k, strips, workers, p0, kcb, j0, ncb int, a, b, bpk, c []float32, bias Bias, ws []float32) {
	per := len(ws) / workers
	pool.Run(workers, workers, func(w int) {
		lo, hi := w*strips/workers, (w+1)*strips/workers
		stripBlock(kn, m, n, k, lo, hi, p0, kcb, j0, ncb, a, b, bpk, c, bias, ws[w*per:(w+1)*per])
	})
}
