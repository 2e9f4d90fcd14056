package bench

// runner.go fans independent experiments (and, via parallelFor,
// independent sweep points inside one experiment) across a worker pool.
//
// Determinism contract: parallelism never changes results, only wall
// clock. Every experiment and every sweep point seeds its own RNG from
// Options.Seed — no worker ever reads a shared random stream — and
// results land in pre-sized slots keyed by input index, so rendering
// order is the serial order no matter which worker finishes first.
// TestParallelAllDeterministic holds every experiment to this.

import (
	"sync"
	"time"
)

// RunResult is one completed experiment from RunStream.
type RunResult struct {
	Experiment Experiment
	Table      *Table
	Took       time.Duration
}

// RunStream executes exps across workers goroutines and calls emit once
// per experiment in input order — each as soon as it and all its
// predecessors have finished. emit runs on the calling goroutine, so
// callers may print without locking. workers <= 1 runs serially.
func RunStream(exps []Experiment, opts Options, workers int, emit func(RunResult)) {
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers <= 1 {
		for _, e := range exps {
			start := time.Now() //lint:ignore wallclock Took is wall-clock experiment timing, not simulated time
			table := e.Run(opts)
			//lint:ignore wallclock Took is wall-clock experiment timing, not simulated time
			emit(RunResult{Experiment: e, Table: table, Took: time.Since(start)})
		}
		return
	}
	results := make([]RunResult, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	// WallClock experiments measure host time: they take the write side
	// of excl so nothing else is in flight while they run, keeping the
	// measurement as honest under -parallel 8 as under -parallel 1.
	var excl sync.RWMutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if exps[i].WallClock {
					excl.Lock()
				} else {
					excl.RLock()
				}
				start := time.Now() //lint:ignore wallclock Took is wall-clock experiment timing, not simulated time
				table := exps[i].Run(opts)
				//lint:ignore wallclock Took is wall-clock experiment timing, not simulated time
				results[i] = RunResult{Experiment: exps[i], Table: table, Took: time.Since(start)}
				if exps[i].WallClock {
					excl.Unlock()
				} else {
					excl.RUnlock()
				}
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range exps {
			idx <- i
		}
		close(idx)
	}()
	for i := range exps {
		<-done[i]
		emit(results[i])
	}
	wg.Wait()
}

// parallelFor runs body(i) for every i in [0, n) across o.Parallel
// workers. With Parallel <= 1 it degrades to a plain loop. body must
// write its result into a slot owned by i; slices indexed by i are safe
// without locking because no two workers share an index.
func (o Options) parallelFor(n int, body func(i int)) {
	workers := o.Parallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				body(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
