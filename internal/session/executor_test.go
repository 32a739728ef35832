package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExecuteContract pins the cell executor's contract for one worker,
// a small pool, and more workers than jobs: results in index order, the
// lowest failing index reported even when a higher one fails first, no
// new job after a failure (observable with one worker), the worker
// count clamped to the job count, and no run arena shared by two
// goroutines at once (the race detector also watches the arenas).
func TestExecuteContract(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 2, n + 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// With at least as many workers as jobs, every job waits at a
			// barrier until all n are in flight: n concurrent jobs, so n
			// distinct workers and n distinct arenas must be in use.
			var barrier sync.WaitGroup
			allInFlight := workers >= n
			if allInFlight {
				barrier.Add(n)
			}
			var inUse sync.Map // *RunScratch → *atomic.Int32
			var seen sync.Map  // worker index → true
			run := func(scr *RunScratch, worker, job int) (int, error) {
				seen.Store(worker, true)
				c, _ := inUse.LoadOrStore(scr, new(atomic.Int32))
				if c.(*atomic.Int32).Add(1) != 1 {
					t.Errorf("job %d: run arena in use by another goroutine", job)
				}
				defer c.(*atomic.Int32).Add(-1)
				scr.Log.Subject = fmt.Sprint(job) // touch the arena
				if allInFlight {
					barrier.Done()
					barrier.Wait()
				}
				return job * job, nil
			}

			got, failed, err := Execute(n, workers, NewArenas(workers), run)
			if err != nil || failed != -1 {
				t.Fatalf("clean run: failed=%d err=%v", failed, err)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("result %d = %d, want %d (index order)", i, v, i*i)
				}
			}
			pool := min(workers, n)
			seen.Range(func(w, _ any) bool {
				if w.(int) < 0 || w.(int) >= pool {
					t.Errorf("worker index %d with %d workers over %d jobs: not clamped to %d", w, workers, n, pool)
				}
				return true
			})

			// Jobs 2 and 5 fail. With a pool, job 5 fails first: job 2
			// starts, then holds its failure until job 5 has returned.
			var started sync.Map
			twoStarted := make(chan struct{})
			fiveFailed := make(chan struct{})
			errTwo, errFive := errors.New("two"), errors.New("five")
			pooled := pool > 1
			failing := func(scr *RunScratch, worker, job int) (int, error) {
				started.Store(job, true)
				switch job {
				case 2:
					if pooled {
						close(twoStarted)
						<-fiveFailed
					}
					return 0, errTwo
				case 5:
					if pooled {
						<-twoStarted
						defer close(fiveFailed)
					}
					return 0, errFive
				}
				return job, nil
			}
			res, failed, err := Execute(n, workers, NewArenas(workers), failing)
			if failed != 2 || err != errTwo || res != nil {
				t.Fatalf("got failed=%d err=%v res=%v, want the lowest failing index 2 and nil results", failed, err, res)
			}
			if !pooled {
				for job := 3; job < n; job++ {
					if _, ok := started.Load(job); ok {
						t.Fatalf("job %d started after job 2 failed", job)
					}
				}
			}
		})
	}
}

// TestExecuteEmpty runs no jobs and returns an empty, non-nil result.
func TestExecuteEmpty(t *testing.T) {
	got, failed, err := Execute(0, 4, NewArenas(4), func(*RunScratch, int, int) (int, error) {
		t.Fatal("run called with no jobs")
		return 0, nil
	})
	if err != nil || failed != -1 || got == nil || len(got) != 0 {
		t.Fatalf("got %v, %d, %v", got, failed, err)
	}
}

// TestStreamRunsEveryJob drains a stream that keeps arriving after the
// workers start and never aborts on a job's own failure.
func TestStreamRunsEveryJob(t *testing.T) {
	jobs := make(chan int)
	var ran [16]atomic.Bool
	wait := Stream(jobs, 3, NewArenas(3), func(_ *RunScratch, _, job int) { ran[job].Store(true) })
	for i := range ran {
		jobs <- i
	}
	close(jobs)
	wait()
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("job %d never ran", i)
		}
	}
}
