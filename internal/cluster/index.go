package cluster

// index.go is a shard's incrementally-maintained free-capacity index:
// every up server in the shard's ID range, retrievable in ascending
// (free weighted capacity, id) order — the order the scheduler's best-fit
// query, "the fullest server that still fits this candidate", walks
// (Figure 17a's scalability claim).
//
// Resources are allocated in whole cores and MPS slices, so a server's
// free state is a small integer vector (17 x 21 values on the testbed
// server) and the ordering key Free.Weighted() is a pure function of it.
// The index therefore never sorts servers. It keeps one cell per free
// vector, each an id-ordered bitmap of the shard's up servers currently
// in that state; the cells themselves are ordered by key once, when the
// cluster is built (cellOrder, shared by every shard with the same
// capacity grid); and a bitmap of the non-empty cells makes "next
// occupied cell" a word scan, with its two ends cached so that the
// smallest and largest key — the shard prunes — are one load each.
// Allocate, Release and SetDown clear one bit and set another. A query
// walks occupied cells upward, dismisses a cell whose vector cannot hold
// the candidate with two integer compares, and takes ids in ascending
// order — exactly the (key, id) sequence of a sorted array, without the
// array. Bitmaps are shard-sized (servers/64 words), which is what keeps
// the id scan a few cache lines long.

import (
	"math/bits"
	"sort"

	"github.com/tanklab/infless/internal/perf"
)

// cellOrder ranks the free vectors of a capacity grid [0,maxCPU] x
// [0,maxGPU] by key. Vectors whose float keys are equal share a cell, so
// servers in a cell are tied on the key and leave it in id order whatever
// their vectors are; with the paper's beta no two vectors of a
// realistic grid tie, and every cell holds exactly one.
type cellOrder struct {
	maxCPU, maxGPU int
	cellOf         []int32 // cpu*(maxGPU+1)+gpu -> cell
	cells          []cellKey
}

// cellKey is one cell of the order: its key, and the componentwise
// largest free vector filed under it (the vector itself when the key is
// unique), which bounds what any server in the cell can host.
type cellKey struct {
	key      float64
	cpu, gpu int
}

// holds reports whether some vector of the cell can hold res. False
// dismisses every server in the cell; true still leaves the per-server
// check to the caller when the cell merges several vectors.
func (k *cellKey) holds(res perf.Resources) bool {
	return res.CPU <= k.cpu && res.GPU <= k.gpu
}

// newCellOrder builds the order of the grid under key, which must be
// monotone in both dimensions (production passes Resources.Weighted;
// tests inject coarser keys to force ties).
func newCellOrder(maxCPU, maxGPU int, key func(perf.Resources) float64) *cellOrder {
	stride := maxGPU + 1
	n := (maxCPU + 1) * stride
	keys := make([]float64, n)
	slots := make([]int32, n)
	for s := range slots {
		slots[s] = int32(s)
		keys[s] = key(perf.Resources{CPU: s / stride, GPU: s % stride})
	}
	sort.Slice(slots, func(a, b int) bool {
		if ka, kb := keys[slots[a]], keys[slots[b]]; ka != kb {
			return ka < kb
		}
		return slots[a] < slots[b]
	})
	o := &cellOrder{maxCPU: maxCPU, maxGPU: maxGPU, cellOf: make([]int32, n), cells: make([]cellKey, 0, n)}
	for _, s := range slots {
		cpu, gpu := int(s)/stride, int(s)%stride
		if last := len(o.cells) - 1; last >= 0 && o.cells[last].key == keys[s] {
			k := &o.cells[last]
			k.cpu, k.gpu = max(k.cpu, cpu), max(k.gpu, gpu)
		} else {
			o.cells = append(o.cells, cellKey{key: keys[s], cpu: cpu, gpu: gpu})
		}
		o.cellOf[s] = int32(len(o.cells) - 1)
	}
	return o
}

// covers reports whether v lies on the grid.
func (o *cellOrder) covers(v perf.Resources) bool {
	return uint(v.CPU) <= uint(o.maxCPU) && uint(v.GPU) <= uint(o.maxGPU)
}

// cell returns the cell of free vector v, which must lie on the grid: a
// server's free resources never leave [0, capacity].
func (o *cellOrder) cell(v perf.Resources) int {
	if !o.covers(v) {
		panic("cluster: free vector outside the shard's capacity grid")
	}
	return int(o.cellOf[v.CPU*(o.maxGPU+1)+v.GPU])
}

// floor returns the first cell a server able to hold res can be in — the
// cell of res itself, since the key is monotone — reporting false when
// res exceeds the grid and so every server of the shard.
func (o *cellOrder) floor(res perf.Resources) (int, bool) {
	res.CPU, res.GPU = max(res.CPU, 0), max(res.GPU, 0)
	if !o.covers(res) {
		return 0, false
	}
	return o.cell(res), true
}

// freeIndex files each up server of a shard under the cell of its free
// vector. Down servers are in no cell: they accept no placements. All
// ids exchanged with callers are global server ids; base maps them onto
// bitmap positions.
type freeIndex struct {
	base     int32 // first server id of the owning shard's range
	words    int   // bitmap words per cell: one bit per server of the range
	order    *cellOrder
	members  [][]uint64 // cell -> bitmap of its servers (id-base), nil until first used
	count    []int32    // cell -> servers in it
	nonEmpty []uint64   // bitmap of the cells with count > 0
	lo, hi   int        // first and last non-empty cell; len(count), -1 when none
}

// build files the shard's up servers. servers is the shard's slice of
// the cluster list; base is its first server id; order must cover every
// server's capacity.
func (ix *freeIndex) build(servers []*Server, base int, order *cellOrder) {
	*ix = freeIndex{
		base:     int32(base),
		words:    (len(servers) + 63) / 64,
		order:    order,
		members:  make([][]uint64, len(order.cells)),
		count:    make([]int32, len(order.cells)),
		nonEmpty: make([]uint64, (len(order.cells)+63)/64),
		lo:       len(order.cells),
		hi:       -1,
	}
	for _, s := range servers {
		if !s.down {
			ix.insert(int32(s.ID), s.Free)
		}
	}
}

// insert files absent server id under free vector v.
func (ix *freeIndex) insert(id int32, v perf.Resources) {
	cell := ix.order.cell(v)
	ms := ix.members[cell]
	if ms == nil {
		ms = ix.open(cell)
	}
	i := uint(id - ix.base)
	ms[i/64] |= 1 << (i % 64)
	if ix.count[cell]++; ix.count[cell] == 1 {
		ix.nonEmpty[cell/64] |= 1 << (uint(cell) % 64)
		ix.lo, ix.hi = min(ix.lo, cell), max(ix.hi, cell)
	}
}

// open allocates a cell's bitmap the first time a server enters it; most
// of a grid's vectors are never reached.
func (ix *freeIndex) open(cell int) []uint64 {
	ix.members[cell] = make([]uint64, ix.words)
	return ix.members[cell]
}

// remove takes server id out of the cell of v, the vector it was filed
// under.
func (ix *freeIndex) remove(id int32, v perf.Resources) {
	cell := ix.order.cell(v)
	i := uint(id - ix.base)
	ms := ix.members[cell]
	if ms == nil || ms[i/64]&(1<<(i%64)) == 0 {
		// Emptying a cell that still holds servers would hide them from
		// every query; fail loudly instead.
		panic("cluster: server is not indexed under its free vector")
	}
	ms[i/64] &^= 1 << (i % 64)
	if ix.count[cell]--; ix.count[cell] == 0 {
		ix.nonEmpty[cell/64] &^= 1 << (uint(cell) % 64)
		if cell == ix.lo {
			if ix.lo = ix.nextCell(cell + 1); ix.lo < 0 {
				ix.lo = len(ix.count)
			}
		}
		if cell == ix.hi {
			ix.hi = prevBit(ix.nonEmpty, cell-1)
		}
	}
}

// move refiles present server id from vector from to vector to.
func (ix *freeIndex) move(id int32, from, to perf.Resources) {
	ix.remove(id, from)
	ix.insert(id, to)
}

// minKey returns the smallest indexed key, reporting false when the
// index is empty (every server in the range down).
func (ix *freeIndex) minKey() (float64, bool) {
	if ix.hi < 0 {
		return 0, false
	}
	return ix.order.cells[ix.lo].key, true
}

// maxKey returns the largest indexed key, reporting false when empty.
func (ix *freeIndex) maxKey() (float64, bool) {
	if ix.hi < 0 {
		return 0, false
	}
	return ix.order.cells[ix.hi].key, true
}

// nextCell returns the first non-empty cell at or after from, -1 when
// there is none. Walking nextCell(c+1) visits cells in ascending key
// order.
func (ix *freeIndex) nextCell(from int) int { return nextBit(ix.nonEmpty, from) }

// nextID returns the lowest server id at or after from in cell, -1 when
// there is none. Walking nextID(cell, id+1) inside a nextCell walk visits
// servers in ascending (key, id) order.
func (ix *freeIndex) nextID(cell int, from int32) int32 {
	i := nextBit(ix.members[cell], int(from-ix.base))
	if i < 0 {
		return -1
	}
	return ix.base + int32(i)
}

// prevBit returns the position of the highest set bit at or before from,
// -1 when there is none (or from is negative).
func prevBit(words []uint64, from int) int {
	if from < 0 {
		return -1
	}
	w := int(uint(from) / 64)
	word := words[w] & (1<<(uint(from)%64+1) - 1)
	for word == 0 {
		if w--; w < 0 {
			return -1
		}
		word = words[w]
	}
	return w*64 + 63 - bits.LeadingZeros64(word)
}

// nextBit returns the position of the lowest set bit at or after from,
// -1 when there is none.
func nextBit(words []uint64, from int) int {
	w := int(uint(from) / 64) // from is never negative; unsigned division is a shift
	if w >= len(words) {
		return -1
	}
	word := words[w] &^ (1<<(uint(from)%64) - 1)
	for word == 0 {
		if w++; w == len(words) {
			return -1
		}
		word = words[w]
	}
	return w*64 + bits.TrailingZeros64(word)
}
