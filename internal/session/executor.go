package session

import (
	"sync"
	"sync/atomic"
)

// Execute is the cell executor every batch path shares — campaign cells,
// validity sweep points, hub batch sessions and the search's evaluations
// all run through it. It runs jobs 0..n-1 on a pool of workers (clamped
// to [1, n]; one worker is simply a pool of one) and returns the results
// in index order, so output never depends on the worker count.
//
// Each worker owns one RunScratch from arenas for its whole job stream
// and hands it to run with the worker's index; run must not let the
// arena escape to another goroutine. After the first failure no new job
// starts (jobs already running finish). On failure Execute returns nil results, the
// lowest failing index and that job's error — deterministic even when
// several jobs fail concurrently.
func Execute[R any](n, workers int, arenas *Arenas, run func(scr *RunScratch, worker, job int) (R, error)) ([]R, int, error) {
	results := make([]R, n)
	errs := make([]error, n)
	var failed atomic.Bool
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	Stream(jobs, min(workers, n), arenas, func(scr *RunScratch, worker, job int) {
		if failed.Load() {
			return // drain without starting new cells
		}
		r, err := run(scr, worker, job)
		if err != nil {
			errs[job] = err
			failed.Store(true)
			return
		}
		results[job] = r
	})()
	for job, err := range errs {
		if err != nil {
			return nil, job, err
		}
	}
	return results, -1, nil
}

// Stream is Execute's open-ended form, for job streams whose length is
// not known up front (the distributed worker's leased cells). It starts
// max(workers, 1) goroutines draining jobs, each owning one RunScratch
// from arenas until jobs is drained, and never aborts: run reports its
// own failures. The returned wait blocks until jobs is closed and every
// started job has finished.
func Stream(jobs <-chan int, workers int, arenas *Arenas, run func(scr *RunScratch, worker, job int)) (wait func()) {
	workers = max(workers, 1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			scr := arenas.Get()
			defer arenas.Put(scr)
			for job := range jobs {
				run(scr, w, job)
			}
		}()
	}
	return wg.Wait
}
