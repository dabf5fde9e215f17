// Package fleet runs independent jobs on a bounded pool of worker
// goroutines. The harness uses it to compute campaign cells in parallel:
// each cell is a self-contained discrete-event simulation with its own
// scheduler, RNG and farm, so cells never share mutable state and the only
// coordination needed is handing out indices and collecting results.
//
// Determinism: Map returns results in input order regardless of completion
// order, so a caller that merges them sequentially observes exactly the
// serial outcome — parallelism changes wall-clock time, never results.
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Result pairs one job's value with its error.
type Result[T any] struct {
	Value T
	Err   error
}

// PoolStats reports how one Map invocation's jobs spread across the pool.
// JobsPerWorker is indexed by worker slot; a serial run has one slot.
type PoolStats struct {
	Workers       int
	JobsPerWorker []int
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results indexed by input position. workers <= 0 means
// GOMAXPROCS; the pool never exceeds n. A panicking job is recovered into
// its Result's Err so one bad cell cannot take down a whole campaign.
func Map[T any](workers, n int, fn func(int) (T, error)) []Result[T] {
	results, _ := MapTracked(workers, n, fn)
	return results
}

// MapTracked is Map plus pool accounting: how many jobs each worker slot
// completed. Job-to-worker assignment is racy by design (workers grab the
// next index as they free up), so JobsPerWorker varies run to run — the
// results never do.
func MapTracked[T any](workers, n int, fn func(int) (T, error)) ([]Result[T], PoolStats) {
	if n <= 0 {
		return nil, PoolStats{}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]Result[T], n)
	stats := PoolStats{Workers: workers, JobsPerWorker: make([]int, workers)}
	if workers == 1 {
		for i := 0; i < n; i++ {
			results[i] = call(i, fn)
		}
		stats.JobsPerWorker[0] = n
		return results, stats
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = call(i, fn)
				stats.JobsPerWorker[slot]++
			}
		}(w)
	}
	wg.Wait()
	return results, stats
}

// call invokes one job, converting a panic into an error.
func call[T any](i int, fn func(int) (T, error)) (res Result[T]) {
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("fleet: job %d panicked: %v", i, p)
		}
	}()
	res.Value, res.Err = fn(i)
	return res
}
