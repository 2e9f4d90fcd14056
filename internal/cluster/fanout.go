package cluster

// fanout.go fans placement queries across the cluster's shards on a
// bounded worker pool. A FitPool splits the shard range into contiguous
// chunks, answers each chunk with BestFitShards/FirstFitShards from its
// own worker, and merges the per-chunk winners in ascending chunk order
// with a strictly-less key comparison — the same rule the shards
// themselves merge by, so a pooled query returns exactly the serial
// answer (TestShardRangeQueriesComposeToFull is the property; the
// scheduler's TestShardedFitWorkersEquivalence drives it end to end).
// The merge lives here, next to the shard layout, so the scheduler and
// sim never grow a second copy of it (held by the singleDefs rows in
// internal/registry/registry_test.go).

import (
	"sync"

	"github.com/tanklab/infless/internal/perf"
)

// FitPool answers BestFit/FirstFit queries over a sharded cluster from a
// fixed set of worker goroutines. Queries are read-only over the shard
// indexes, so a pool must not run concurrently with Allocate/Release/
// SetDown on the same cluster — the scheduler alternates strictly
// between querying and allocating, which is the intended discipline.
// One query runs at a time per pool (the scheduler's pass-1 loop is
// serial); the parallelism is across shards within a query.
type FitPool struct {
	c       *Cluster
	chunks  [][2]int // contiguous shard ranges, one per worker
	answers []fitAnswer
	jobs    chan fitJob
	closing sync.Once // jobs closes once however often Close is called
	wg      sync.WaitGroup
}

type fitAnswer struct {
	id    int
	freeW float64
	ok    bool
}

type fitJob struct {
	slot     int
	res      perf.Resources
	memMB    int
	firstFit bool
}

// NewFitPool creates a pool with the given number of workers, clamped to
// the shard count. workers <= 1 (or a single shard) yields the cluster's
// serial pool, which answers inline with no goroutines and costs nothing
// to obtain — callers need no special case, and a one-instance Schedule
// does not pay an allocation for a pool it will query a few times.
// Close must be called to release the workers.
func (c *Cluster) NewFitPool(workers int) *FitPool {
	if workers = min(workers, len(c.shards)); workers <= 1 {
		return &c.serial
	}
	return c.startFitPool(workers)
}

// startFitPool starts workers (2 to the shard count) goroutines.
func (c *Cluster) startFitPool(workers int) *FitPool {
	n := len(c.shards)
	p := &FitPool{
		c:       c,
		chunks:  make([][2]int, workers),
		answers: make([]fitAnswer, workers),
		jobs:    make(chan fitJob, workers),
	}
	for i := range p.chunks {
		p.chunks[i] = [2]int{i * n / workers, (i + 1) * n / workers}
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *FitPool) worker() {
	for j := range p.jobs {
		a := &p.answers[j.slot]
		from, to := p.chunks[j.slot][0], p.chunks[j.slot][1]
		if j.firstFit {
			a.id, a.freeW, a.ok = p.c.FirstFitShards(from, to, j.res, j.memMB)
		} else {
			a.id, a.freeW, a.ok = p.c.BestFitShards(from, to, j.res, j.memMB)
		}
		p.wg.Done()
	}
}

// query fans one placement query across the chunks and merges. The
// wg.Wait happens-before edge makes the answers slots safe to read.
func (p *FitPool) query(res perf.Resources, memMB int, firstFit bool) (int, float64, bool) {
	p.wg.Add(len(p.chunks))
	for i := range p.chunks {
		p.jobs <- fitJob{slot: i, res: res, memMB: memMB, firstFit: firstFit}
	}
	p.wg.Wait()
	id, freeW, ok := -1, 0.0, false
	for i := range p.answers {
		a := p.answers[i]
		if !a.ok {
			continue
		}
		if firstFit {
			// Chunks ascend the ID space: the first hit is the lowest id.
			return a.id, a.freeW, true
		}
		// Strictly less: key ties go to the earlier chunk's lower ids,
		// exactly the single-index contract.
		if !ok || a.freeW < freeW {
			id, freeW, ok = a.id, a.freeW, true
		}
	}
	return id, freeW, ok
}

// BestFit answers the cluster-wide best-fit query through the pool.
func (p *FitPool) BestFit(res perf.Resources, memMB int) (id int, freeW float64, ok bool) {
	if p.jobs == nil {
		return p.c.BestFit(res, memMB)
	}
	return p.query(res, memMB, false)
}

// FirstFit answers the cluster-wide first-fit query through the pool.
func (p *FitPool) FirstFit(res perf.Resources, memMB int) (id int, freeW float64, ok bool) {
	if p.jobs == nil {
		return p.c.FirstFit(res, memMB)
	}
	return p.query(res, memMB, true)
}

// Close releases the pool's workers. The pool is unusable afterwards;
// closing it again does nothing.
func (p *FitPool) Close() {
	if p.jobs != nil {
		p.stopWorkers()
	}
}

// stopWorkers ends a pooled FitPool's workers, once.
func (p *FitPool) stopWorkers() { p.closing.Do(func() { close(p.jobs) }) }
