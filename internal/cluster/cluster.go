// Package cluster tracks servers and their heterogeneous CPU/GPU resource
// inventories, providing the placement substrate for the INFless
// scheduler. It corresponds to the "cluster resource status" input of the
// auto-scaling engine (Figure 4) plus the fragmentation accounting used
// by the evaluation (Figure 17b).
//
// The resource view is sharded (shard.go): servers split into contiguous
// ID ranges, each with its own free-capacity index and integer-backed
// aggregates, so placement queries stay shard-local while cluster-wide
// reads merge shard counters deterministically. All aggregate views —
// resource totals, active-server counts, the fragmentation ratio and the
// free-capacity indexes behind BestFit and FirstFit — are maintained
// incrementally by Allocate/Release/SetDown in O(1): a server's free
// state is a small integer vector, so the index (index.go) files servers
// in one bitmap per vector and a mutation moves one bit. Telemetry
// sampling costs O(shards); a placement query walks the occupied vectors
// that can hold the candidate, never the server list.
package cluster

import (
	"fmt"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/perf"
)

// Server is one machine of the testbed.
type Server struct {
	ID        int
	Capacity  perf.Resources
	Free      perf.Resources
	MemCapMB  int
	MemFreeMB int
	allocs    int
	down      bool
	// art is the server's artifact cache (which model checkpoints are
	// resident at which storage tier). It is nil unless the cluster was
	// built with multi-tier artifact loading enabled — the nil state is
	// the legacy scalar cold-start model and must stay behaviorally
	// identical to the pre-artifact tree.
	art *artifact.Cache
}

// Artifacts returns the server's artifact cache, or nil when multi-tier
// loading is disabled.
func (s *Server) Artifacts() *artifact.Cache { return s.art }

// Down reports whether the server is marked failed; failed servers accept
// no new allocations (existing bookkeeping is the owner's to clean up).
func (s *Server) Down() bool { return s.down }

// Allocated returns the resources currently in use on the server.
func (s *Server) Allocated() perf.Resources { return s.Capacity.Sub(s.Free) }

// Cluster is a collection of servers with allocation bookkeeping, split
// into shards (shard.go) that each own a free-capacity index and the
// aggregates for their ID range.
type Cluster struct {
	servers []*Server
	shards  []shard
	serial  FitPool // the worker-less pool NewFitPool hands out; stateless
}

// Options configures cluster construction.
type Options struct {
	Servers   int
	PerServer perf.Resources
	// Shards is the number of contiguous ID-range shards the resource
	// view is split into (default 1; clamped to the server count).
	// Sharding never changes placement decisions — only who answers the
	// query and how much of the index one mutation touches.
	Shards int
}

// New creates a homogeneous cluster. Zero-valued fields default to the
// paper's testbed server (16 cores, 2 GPUs = 20 MPS units, 128 GB).
func New(opts Options) *Cluster {
	if opts.Servers <= 0 {
		opts.Servers = 8
	}
	if opts.PerServer.IsZero() {
		opts.PerServer = perf.ServerCapacity()
	}
	c := &Cluster{servers: make([]*Server, opts.Servers)}
	for i := range c.servers {
		c.servers[i] = &Server{
			ID:        i,
			Capacity:  opts.PerServer,
			Free:      opts.PerServer,
			MemCapMB:  perf.ServerMemoryMB,
			MemFreeMB: perf.ServerMemoryMB,
		}
	}
	c.init(opts.Shards)
	return c
}

// NodePool describes one homogeneous group of servers in a heterogeneous
// cluster.
type NodePool struct {
	Servers   int
	PerServer perf.Resources
	MemMB     int
}

// NewHeterogeneous builds a single-shard cluster from node pools — e.g.
// a GPU pool plus CPU-only workers, the common production layout. Server
// IDs are assigned across pools in order.
func NewHeterogeneous(pools []NodePool) *Cluster {
	return NewHeterogeneousSharded(pools, 1)
}

// NewHeterogeneousSharded builds a heterogeneous cluster split into the
// given number of shards. Shard boundaries are contiguous ID ranges over
// the pool-ordered server list, so a pool maps onto a run of shards (and
// a shard may straddle a pool boundary — the equivalence tests cover
// exactly that case).
func NewHeterogeneousSharded(pools []NodePool, shards int) *Cluster {
	c := &Cluster{}
	for _, p := range pools {
		if p.Servers <= 0 {
			continue
		}
		mem := p.MemMB
		if mem <= 0 {
			mem = perf.ServerMemoryMB
		}
		cap := p.PerServer
		if cap.IsZero() {
			cap = perf.ServerCapacity()
		}
		for i := 0; i < p.Servers; i++ {
			c.servers = append(c.servers, &Server{
				ID:        len(c.servers),
				Capacity:  cap,
				Free:      cap,
				MemCapMB:  mem,
				MemFreeMB: mem,
			})
		}
	}
	if len(c.servers) == 0 {
		panic("cluster: heterogeneous cluster with no servers")
	}
	c.init(shards)
	return c
}

// init splits the servers into shards and seeds each shard's aggregates
// and free-capacity index. Shards whose largest server is the same share
// one cell order.
func (c *Cluster) init(shards int) {
	c.serial.c = c
	bounds := shardBounds(len(c.servers), shards)
	c.shards = make([]shard, len(bounds)-1)
	var orders []*cellOrder
	for i := range c.shards {
		sh := &c.shards[i]
		sh.lo, sh.hi = bounds[i], bounds[i+1]
		var grid perf.Resources
		for _, s := range c.servers[sh.lo:sh.hi] {
			sh.totalCap = sh.totalCap.Add(s.Capacity)
			sh.totalFree = sh.totalFree.Add(s.Free)
			grid.CPU, grid.GPU = max(grid.CPU, s.Capacity.CPU), max(grid.GPU, s.Capacity.GPU)
		}
		var order *cellOrder
		for _, o := range orders {
			if o.maxCPU == grid.CPU && o.maxGPU == grid.GPU {
				order = o
			}
		}
		if order == nil {
			order = newCellOrder(grid.CPU, grid.GPU, perf.Resources.Weighted)
			orders = append(orders, order)
		}
		sh.index.build(c.servers[sh.lo:sh.hi], sh.lo, order)
	}
}

// EnableArtifacts gives every server an artifact cache with the given
// per-tier capacities, turning on the multi-tier cold-start model for
// this cluster. It is idempotent per server (existing caches are kept)
// and is called once at engine construction, never concurrently with
// placement queries.
func (c *Cluster) EnableArtifacts(capMB [artifact.NumTiers]int64) {
	for _, s := range c.servers {
		if s.art == nil {
			s.art = artifact.NewCache(capMB)
		}
	}
}

// SeedArtifact makes the named artifact resident at the given tier on
// every server (e.g. checkpoints pre-pulled to local SSD at deploy
// time). Seeding to TierRemote is a no-op: remote is the miss state.
func (c *Cluster) SeedArtifact(name string, sizeMB int, tier artifact.Tier) {
	if tier == artifact.TierRemote {
		return
	}
	for _, s := range c.servers {
		if s.art != nil {
			s.art.Put(name, sizeMB, tier)
		}
	}
}

// Testbed returns the paper's 8-server, 16-GPU local cluster.
func Testbed() *Cluster { return New(Options{Servers: 8}) }

// Server returns server id, panicking on out-of-range ids (ids are only
// ever produced by the cluster itself).
func (c *Cluster) Server(id int) *Server {
	if id < 0 || id >= len(c.servers) {
		invalidServer(id)
	}
	return c.servers[id]
}

// invalidServer panics on an id the cluster never produced.
func invalidServer(id int) { panic(fmt.Sprintf("cluster: invalid server id %d", id)) }

// EachServer visits every server in ID order until visit returns false.
// Reporting and baseline code walk the inventory through it; the cluster
// never hands out its backing slice (the shard layout behind it stays
// private).
func (c *Cluster) EachServer(visit func(*Server) bool) {
	for _, s := range c.servers {
		if !visit(s) {
			return
		}
	}
}

// SetDown marks a server failed (true) or recovered (false). Down
// servers leave their shard's free-capacity index: they can never host
// placements.
func (c *Cluster) SetDown(id int, down bool) {
	s := c.Server(id)
	if s.down == down {
		return
	}
	s.down = down
	ix := &c.shardFor(id).index
	if down {
		ix.remove(int32(id), s.Free)
	} else {
		ix.insert(int32(id), s.Free)
	}
}

// Allocate reserves res (+memMB) on server id.
func (c *Cluster) Allocate(id int, res perf.Resources, memMB int) error {
	s := c.Server(id)
	if s.down || !s.Free.Fits(res) || memMB > s.MemFreeMB {
		return s.allocateError(res, memMB)
	}
	wasActive := s.allocs > 0
	before := s.Free
	s.Free = s.Free.Sub(res)
	s.MemFreeMB -= memMB
	s.allocs++
	sh := c.shardFor(id)
	sh.totalFree = sh.totalFree.Sub(res)
	if wasActive {
		sh.activeFree = sh.activeFree.Sub(res)
	} else {
		sh.active++
		sh.activeCap = sh.activeCap.Add(s.Capacity)
		sh.activeFree = sh.activeFree.Add(s.Free)
	}
	sh.index.move(int32(id), before, s.Free)
	return nil
}

// allocateError says why s cannot host res (+memMB).
func (s *Server) allocateError(res perf.Resources, memMB int) error {
	switch {
	case s.down:
		return fmt.Errorf("cluster: server %d is down", s.ID)
	case !s.Free.Fits(res):
		return fmt.Errorf("cluster: server %d cannot fit %v (free %v)", s.ID, res, s.Free)
	}
	return fmt.Errorf("cluster: server %d cannot fit %d MB (free %d MB)", s.ID, memMB, s.MemFreeMB)
}

// Release returns res (+memMB) to server id. Releasing more than was
// allocated panics: it is always a double-free bug in the caller.
func (c *Cluster) Release(id int, res perf.Resources, memMB int) {
	s := c.Server(id)
	s.Free = s.Free.Add(res)
	s.MemFreeMB += memMB
	s.allocs--
	if !s.Capacity.Fits(s.Free) || s.MemFreeMB > s.MemCapMB || s.allocs < 0 {
		panic(fmt.Sprintf("cluster: release underflow on server %d", id))
	}
	sh := c.shardFor(id)
	sh.totalFree = sh.totalFree.Add(res)
	if s.allocs > 0 {
		sh.activeFree = sh.activeFree.Add(res)
	} else {
		// The server leaves the active set: drop its pre-release
		// contribution (post-release free minus the returned res).
		sh.active--
		sh.activeCap = sh.activeCap.Sub(s.Capacity)
		sh.activeFree = sh.activeFree.Sub(s.Free.Sub(res))
	}
	if !s.down { // a down server is in no cell; SetDown refiles it on recovery
		sh.index.move(int32(id), s.Free.Sub(res), s.Free)
	}
}

// BestFit returns the fitting up server with the least free weighted
// capacity (ties: lowest id) — the "fullest server that can still host
// this candidate" query that maximizes Eq. 10's packing term. It merges
// the per-shard free-capacity indexes (BestFitShards): within a shard, an
// ascending walk over the occupied free vectors from the candidate's own
// weight, skipping vectors whose CPU/GPU mix cannot hold it, until a
// server's memory fits too; across shards, the deterministic least-key
// merge.
func (c *Cluster) BestFit(res perf.Resources, memMB int) (id int, freeW float64, ok bool) {
	return c.BestFitShards(0, len(c.shards), res, memMB)
}

// FirstFit returns the lowest-id fitting up server — the first-fit
// placement of the Figure 11 RS ablation and of uniform baselines.
func (c *Cluster) FirstFit(res perf.Resources, memMB int) (id int, freeW float64, ok bool) {
	return c.FirstFitShards(0, len(c.shards), res, memMB)
}

// TotalAllocated sums allocated resources across all servers (merged
// over shards; integer sums, so the merge order cannot change the result).
func (c *Cluster) TotalAllocated() perf.Resources {
	var total perf.Resources
	for i := range c.shards {
		sh := &c.shards[i]
		total = total.Add(sh.totalCap.Sub(sh.totalFree))
	}
	return total
}

// ActiveServers returns the number of servers hosting allocations.
func (c *Cluster) ActiveServers() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].active
	}
	return n
}

// FragmentationRatio is the paper's resource-fragment metric: the
// beta-weighted share of *active* servers' capacity that is left
// unallocated. An idle cluster has zero fragmentation. The weighting
// happens after the integer shard sums merge, so the ratio is bit-equal
// to the unsharded computation.
func (c *Cluster) FragmentationRatio() float64 {
	var activeCap, activeFree perf.Resources
	for i := range c.shards {
		activeCap = activeCap.Add(c.shards[i].activeCap)
		activeFree = activeFree.Add(c.shards[i].activeFree)
	}
	cap := activeCap.Weighted()
	if cap == 0 {
		return 0
	}
	return activeFree.Weighted() / cap
}
