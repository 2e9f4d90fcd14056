package cluster

// shard.go is the cluster's partitioned resource view: servers are split
// into contiguous ID ranges, each shard owning its own free-capacity
// index and integer-backed aggregates. Aggregate reads merge shard
// counters (integer sums, so the merge is order-independent and matches
// the unsharded bookkeeping bit for bit); placement queries visit shards
// in ascending range order and merge deterministically — least free
// weighted capacity wins, and because shard ID ranges are disjoint and
// ascending, key ties always resolve to the earlier shard, i.e. the
// lowest server id. That is exactly the single-index contract, which is
// what keeps sharded scheduling decisions bit-identical to a one-shard
// reference run (see TestShardedMatchesSingleShard).
//
// Two O(1) prunes keep the merged query cheap at 100k servers: a shard
// whose largest free key is below the candidate's weight cannot host it
// (skip without walking), and once a best is found, a shard whose
// smallest key is not strictly better cannot improve it (ties lose by
// id). In packing workloads the allocation frontier moves through one
// shard at a time, so most shards are dismissed with one float compare
// against a cached bound, and the walk that does run scans bitmaps a
// shard's worth of servers long. Index maintenance no longer depends on
// the shard size at all (index.go: a mutation is two bit flips), so what
// sharding buys now is short bitmaps, those two prunes, and the unit of
// the FitPool fan-out.

import "github.com/tanklab/infless/internal/perf"

// shard is one contiguous slice [lo, hi) of the server ID space with its
// own free-capacity index and incremental aggregates.
type shard struct {
	lo, hi int
	index  freeIndex

	// Integer-backed aggregates for the shard's servers, maintained by
	// Allocate/Release exactly like the pre-shard cluster-wide ones; the
	// cluster-level views are their sums.
	totalCap   perf.Resources
	totalFree  perf.Resources
	active     int
	activeCap  perf.Resources // capacity summed over active servers
	activeFree perf.Resources // free summed over active servers
}

// shardFor returns the shard owning server id. Boundaries are the
// near-equal split lo_i = i*N/n, so the guess i = id*n/N is off by at
// most one slot.
func (c *Cluster) shardFor(id int) *shard {
	n := len(c.shards)
	if n == 1 {
		return &c.shards[0]
	}
	si := id * n / len(c.servers)
	if si >= n {
		si = n - 1
	}
	for si > 0 && id < c.shards[si].lo {
		si--
	}
	for si+1 < n && id >= c.shards[si].hi {
		si++
	}
	return &c.shards[si]
}

// BestFitShards answers the best-fit query over the shard range
// [from, to): the fitting up server with the least free weighted
// capacity, lowest id on ties. Disjoint ranges can be queried from
// concurrent goroutines (the query is read-only); merging the per-range
// winners in ascending range order with a strictly-less key comparison
// reproduces the full-cluster answer, because every server id in a later
// shard is greater than every id in an earlier one.
//
//lint:hotpath
func (c *Cluster) BestFitShards(from, to int, res perf.Resources, memMB int) (id int, freeW float64, ok bool) {
	minW := res.Weighted()
	id = -1
	for si := from; si < to; si++ {
		ix := &c.shards[si].index
		// Prune 1: the shard's fullest-free server decides feasibility.
		if maxK, any := ix.maxKey(); !any || maxK < minW {
			continue
		}
		// Prune 2: the shard's least free key cannot beat the current
		// best — equal keys lose on id, since this shard's ids are larger.
		if ok {
			if minK, _ := ix.minKey(); minK >= freeW {
				continue
			}
		}
		start, onGrid := ix.order.floor(res)
		if !onGrid {
			continue
		}
	walk:
		for cell := ix.nextCell(start); cell >= 0; cell = ix.nextCell(cell + 1) {
			k := &ix.order.cells[cell]
			if ok && k.key >= freeW {
				break // nothing past here can beat the best
			}
			if !k.holds(res) {
				continue // the free weight is there, the CPU/GPU mix is not
			}
			for sid := ix.nextID(cell, ix.base); sid >= 0; sid = ix.nextID(cell, sid+1) {
				if c.servers[sid].fits(res, memMB) {
					id, freeW, ok = int(sid), k.key, true
					break walk
				}
			}
		}
	}
	return id, freeW, ok
}

// fits is the per-server half of a placement query. The index has
// already dismissed cells that cannot hold res, so the resource compare
// only decides inside a cell that merges several vectors (tied keys);
// memory is not indexed and always decides here.
func (s *Server) fits(res perf.Resources, memMB int) bool {
	return s.Free.Fits(res) && s.MemFreeMB >= memMB
}

// FirstFitShards answers the first-fit query over the shard range
// [from, to): the lowest-id fitting up server, which is the lowest id
// over the occupied cells that can hold res. Shards ascend the ID space,
// so the first shard with an answer has the answer.
func (c *Cluster) FirstFitShards(from, to int, res perf.Resources, memMB int) (id int, freeW float64, ok bool) {
	for si := from; si < to; si++ {
		ix := &c.shards[si].index
		start, onGrid := ix.order.floor(res)
		if !onGrid {
			continue
		}
		best := int32(-1)
		for cell := ix.nextCell(start); cell >= 0; cell = ix.nextCell(cell + 1) {
			if !ix.order.cells[cell].holds(res) {
				continue
			}
			// Only ids below the incumbent matter: the cell's walk ends at
			// its first fitting server or once it passes best.
			for sid := ix.nextID(cell, ix.base); sid >= 0 && (best < 0 || sid < best); sid = ix.nextID(cell, sid+1) {
				if c.servers[sid].fits(res, memMB) {
					best = sid
					break
				}
			}
		}
		if best >= 0 {
			return int(best), c.servers[best].Free.Weighted(), true
		}
	}
	return -1, 0, false
}

// shardBounds returns the contiguous near-equal split of n servers into
// count shards: shard i owns [i*n/count, (i+1)*n/count).
func shardBounds(n, count int) []int {
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	bounds := make([]int, count+1)
	for i := 0; i <= count; i++ {
		bounds[i] = i * n / count
	}
	return bounds
}
