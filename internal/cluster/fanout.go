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
// sim never grow a second copy of it (enforced by infless-lint's
// singledef invariants).

import (
	"sync"
	"time"

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
	id      int
	freeW   float64
	startup time.Duration // meaningful only for artifact-aware queries
	ok      bool
}

type fitJob struct {
	slot     int
	res      perf.Resources
	memMB    int
	firstFit bool
	art      *ArtifactQuery // nil for plain best/first-fit
}

// NewFitPool creates a pool with the given number of workers, clamped to
// the shard count. workers <= 1 (or a single shard) yields the cluster's
// serial pool, which answers inline with no goroutines and costs nothing
// to obtain — callers need no special case, and a one-instance Schedule
// does not pay an allocation for a pool it will query a few times.
// Close must be called to release the workers.
func (c *Cluster) NewFitPool(workers int) *FitPool {
	n := len(c.shards)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return &c.serial
	}
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
		switch {
		case j.firstFit:
			a.id, a.freeW, a.ok = p.c.FirstFitShards(from, to, j.res, j.memMB)
		case j.art != nil:
			a.id, a.freeW, a.startup, a.ok = p.c.BestFitShardsArtifact(from, to, j.res, j.memMB, j.art)
		default:
			a.id, a.freeW, a.ok = p.c.BestFitShards(from, to, j.res, j.memMB)
		}
		p.wg.Done()
	}
}

// query fans one placement query across the chunks and merges. The
// wg.Wait happens-before edge makes the answers slots safe to read.
func (p *FitPool) query(res perf.Resources, memMB int, firstFit bool, art *ArtifactQuery) (int, float64, time.Duration, bool) {
	p.wg.Add(len(p.chunks))
	for i := range p.chunks {
		p.jobs <- fitJob{slot: i, res: res, memMB: memMB, firstFit: firstFit, art: art}
	}
	p.wg.Wait()
	id, freeW, startup, ok := -1, 0.0, time.Duration(0), false
	for i := range p.answers {
		a := p.answers[i]
		if !a.ok {
			continue
		}
		if firstFit {
			// Chunks ascend the ID space: the first hit is the lowest id.
			return a.id, a.freeW, 0, true
		}
		if art != nil {
			// Startup-aware merge: least (startup, freeW); ties go to the
			// earlier chunk's lower ids, same as the per-shard rule.
			if !ok || a.startup < startup || (a.startup == startup && a.freeW < freeW) {
				id, freeW, startup, ok = a.id, a.freeW, a.startup, true
			}
			continue
		}
		// Strictly less: key ties go to the earlier chunk's lower ids,
		// exactly the single-index contract.
		if !ok || a.freeW < freeW {
			id, freeW, ok = a.id, a.freeW, true
		}
	}
	return id, freeW, startup, ok
}

// BestFit answers the cluster-wide best-fit query through the pool.
func (p *FitPool) BestFit(res perf.Resources, memMB int) (id int, freeW float64, ok bool) {
	if p.jobs == nil {
		return p.c.BestFit(res, memMB)
	}
	id, freeW, _, ok = p.query(res, memMB, false, nil)
	return id, freeW, ok
}

// BestFitArtifact answers the startup-aware best-fit query through the
// pool. With q == nil it is exactly BestFit (zero startup), preserving
// the bit-identical contract for disabled tiering.
func (p *FitPool) BestFitArtifact(res perf.Resources, memMB int, q *ArtifactQuery) (id int, freeW float64, startup time.Duration, ok bool) {
	if q == nil {
		id, freeW, ok = p.BestFit(res, memMB)
		return id, freeW, 0, ok
	}
	if p.jobs == nil {
		return p.c.BestFitShardsArtifact(0, len(p.c.shards), res, memMB, q)
	}
	return p.query(res, memMB, false, q)
}

// FirstFit answers the cluster-wide first-fit query through the pool.
func (p *FitPool) FirstFit(res perf.Resources, memMB int) (id int, freeW float64, ok bool) {
	if p.jobs == nil {
		return p.c.FirstFit(res, memMB)
	}
	id, freeW, _, ok = p.query(res, memMB, true, nil)
	return id, freeW, ok
}

// Close releases the pool's workers. The pool is unusable afterwards;
// closing it again does nothing.
func (p *FitPool) Close() {
	if p.jobs != nil {
		p.closing.Do(func() { close(p.jobs) })
	}
}
