package kernels

import "repro/internal/pool"

// parFor runs fn(i) for i in [0, n) on at most workers goroutines from
// the bounded pool (inline when workers <= 1). Every iteration runs
// exactly once, so as long as iteration i writes only state it owns —
// which is how every kernel partitions its output — the result is
// bit-identical to the sequential loop at any worker count: no output
// element's reduction order changes, only which goroutine runs it.
func parFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	pool.Run(n, workers, fn)
}

// parChunks partitions [0, n) into exactly workers contiguous chunks
// (boundaries depend only on n and workers) and runs fn(lo, hi) for
// each on its own pool goroutine. Used where each chunk wants
// worker-local scratch buffers amortized across its iterations.
func parChunks(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	pool.Run(workers, workers, func(w int) {
		fn(w*n/workers, (w+1)*n/workers)
	})
}
