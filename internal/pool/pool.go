// Package pool provides the bounded worker pool shared by the batch
// runner (internal/runner), the serve daemon, the variant tuner and the
// parallel kernels. Centralizing the fan-out keeps every concurrent path
// in the tree on the same, race-tested primitive instead of ad-hoc
// goroutine spawning — including the fault-tolerance behaviors: a
// panicking job fails that one job (with its stack captured) instead
// of crashing the process, and a canceled context stops workers from
// claiming further jobs without abandoning the ones in flight.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default concurrency: one worker per
// available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PanicError is one recovered job panic: the index that panicked, the
// recovered value, and the goroutine stack captured at recovery time.
type PanicError struct {
	// Index is the job index passed to fn.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job %d panicked: %v", e.Index, e.Value)
}

// Outcome summarizes a RunContext call.
type Outcome struct {
	// Completed counts fn calls that returned normally.
	Completed int
	// Skipped counts indices never started because the context was
	// done first. Indices in flight at cancellation run to completion.
	Skipped int
	// Panics holds one entry per fn call that panicked, in index
	// order. Completed + Skipped + len(Panics) == n.
	Panics []*PanicError
}

// Err returns the first panic as an error, or nil.
func (o Outcome) Err() error {
	if len(o.Panics) == 0 {
		return nil
	}
	return o.Panics[0]
}

// Run invokes fn(i) for every i in [0, n), using at most workers
// concurrent goroutines, and returns when all calls have finished.
// workers <= 0 selects DefaultWorkers(). Items are claimed in index
// order, so with workers == 1 the calls are strictly sequential —
// callers exploit this to check that their aggregation is
// order-independent.
//
// fn must confine its writes to per-index state (e.g. results[i]);
// Run itself introduces no synchronization beyond the completion
// barrier, which does establish a happens-before edge between every
// fn call and Run's return.
//
// If any fn call panics, every remaining job still runs and the first
// panic (by index) is then re-raised on the calling goroutine —
// callers that need per-job panic isolation use RunContext.
func Run(n, workers int, fn func(int)) {
	out := RunContext(context.Background(), n, workers, fn)
	if err := out.Err(); err != nil {
		panic(err)
	}
}

// RunContext is Run under a context: workers stop claiming new indices
// once ctx is done (jobs already started run to completion — fn is
// responsible for observing ctx itself if it wants to stop early), and
// a panicking fn call is recovered, captured with its stack, and
// reported in the Outcome instead of crashing the process or
// deadlocking the completion barrier.
func RunContext(ctx context.Context, n, workers int, fn func(int)) Outcome {
	if n <= 0 {
		return Outcome{}
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	var (
		next      atomic.Int64
		completed atomic.Int64
		mu        sync.Mutex
		panics    []*PanicError
	)
	call := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				panics = append(panics, &PanicError{Index: i, Value: v, Stack: debug.Stack()})
				mu.Unlock()
				return
			}
			completed.Add(1)
		}()
		fn(i)
	}
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			call(i)
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	started := int(next.Load())
	if started > n {
		started = n
	}
	sort.Slice(panics, func(a, b int) bool { return panics[a].Index < panics[b].Index })
	return Outcome{
		Completed: int(completed.Load()),
		Skipped:   n - started,
		Panics:    panics,
	}
}
