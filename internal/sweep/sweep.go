// Package sweep is the parallel experiment-sweep engine: a worker pool
// that executes independent simulation cells — one (configuration, seed)
// point of a parameter sweep — concurrently, with deterministic,
// index-ordered aggregation.
//
// Every cell is identified by its index in [0, n); the result slice is
// indexed the same way, so the caller's aggregation (table rows, series
// for monotonicity checks) is byte-identical no matter how many workers
// ran or how the scheduler interleaved them. The cells themselves must
// be independent — each experiment builds its own machine, memory and
// RNG from an explicit per-cell seed, which is what makes the repo's
// sweeps deterministic in the first place.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: values <= 0 select
// GOMAXPROCS, everything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunProgress executes fn(i) for every i in [0, n) on up to workers
// goroutines (Workers-normalized) and returns the results in index order.
//
// Error handling is deterministic: if any cells fail, the *lowest-index*
// failure wins (never "whichever goroutine lost the race"), exactly as a
// serial loop would surface it — if that cell errored, its error is
// returned alongside the partial result slice; if it panicked, the panic
// value propagates to the caller after all workers drain. In particular
// a high-index cell panicking does not outrank a lower-index cell's
// error: the serial loop would have stopped at the error first.
//
// progress (when non-nil) is called after each cell finishes — success
// or failure — with the number of completed cells and the total. Calls
// are serialized (never concurrent) and counts are strictly increasing
// from 1 to n, so a caller can render a progress line without its own
// locking. The hook observes completion order, which is
// scheduler-dependent; only the counts are deterministic.
func RunProgress[T any](workers, n int, progress func(done, total int), fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n <= 0 {
		return out, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if progress != nil {
				progress(i+1, n)
			}
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runCell(i, fn, out, errs, panics)
				if progress != nil {
					mu.Lock()
					done++
					progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(fmt.Sprintf("sweep: cell %d panicked: %v", i, panics[i]))
		}
		if errs[i] != nil {
			return out, errs[i]
		}
	}
	return out, nil
}

// runCell executes one cell, converting a panic into a recorded value so
// the pool drains cleanly before re-panicking in the caller.
func runCell[T any](i int, fn func(i int) (T, error), out []T, errs []error, panics []any) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
		}
	}()
	out[i], errs[i] = fn(i)
}
