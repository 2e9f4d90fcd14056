package cluster

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/tanklab/infless/internal/perf"
)

// naiveBestFit is the reference linear scan the index replaced: least
// free weighted capacity among fitting up servers, lowest id on ties.
func naiveBestFit(c *Cluster, res perf.Resources, memMB int) (int, float64, bool) {
	id, freeW := -1, math.Inf(1)
	for _, s := range c.servers {
		if s.down || !s.Free.Fits(res) || s.MemFreeMB < memMB {
			continue
		}
		if w := s.Free.Weighted(); w < freeW {
			id, freeW = s.ID, w
		}
	}
	if id < 0 {
		return -1, 0, false
	}
	return id, freeW, true
}

func naiveFirstFit(c *Cluster, res perf.Resources, memMB int) (int, float64, bool) {
	for _, s := range c.servers {
		if s.down || !s.Free.Fits(res) || s.MemFreeMB < memMB {
			continue
		}
		return s.ID, s.Free.Weighted(), true
	}
	return -1, 0, false
}

// totalCapacity merges the shards' capacity aggregates.
func totalCapacity(c *Cluster) perf.Resources {
	var total perf.Resources
	for i := range c.shards {
		total = total.Add(c.shards[i].totalCap)
	}
	return total
}

// checkIndexInvariants verifies every shard's index against ground
// truth: contiguous non-overlapping ID ranges covering all servers; every
// up server filed exactly once, inside the owning range, in the cell of
// its live free vector, under a key equal to its live free weight; down
// servers in no cell; the walk strictly ascending in (key, id); cell
// counts, bitmap populations, the non-empty bitmap and its cached bounds
// in agreement; and the shard-merged incremental aggregates equal to a
// rescan.
func checkIndexInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	seen := 0
	nextLo := 0
	for si := range c.shards {
		sh := &c.shards[si]
		if sh.lo != nextLo || sh.hi <= sh.lo {
			t.Fatalf("shard %d: range [%d,%d) does not continue from %d", si, sh.lo, sh.hi, nextLo)
		}
		nextLo = sh.hi
		ix := &sh.index
		if int(ix.base) != sh.lo {
			t.Fatalf("shard %d: index base %d != lo %d", si, ix.base, sh.lo)
		}
		if ix.words*64 < sh.hi-sh.lo {
			t.Fatalf("shard %d: %d bitmap words cannot hold %d servers", si, ix.words, sh.hi-sh.lo)
		}
		filed := make([]int, sh.hi-sh.lo) // times each server was met by the walk
		prevKey, prevID := math.Inf(-1), int32(-1)
		first, last := len(ix.count), -1
		for cell := ix.nextCell(0); cell >= 0; cell = ix.nextCell(cell + 1) {
			first, last = min(first, cell), cell
			key := ix.order.cells[cell].key
			inCell := 0
			for id := ix.nextID(cell, ix.base); id >= 0; id = ix.nextID(cell, id+1) {
				if int(id) < sh.lo || int(id) >= sh.hi {
					t.Fatalf("shard %d: indexed server %d outside range [%d,%d)", si, id, sh.lo, sh.hi)
				}
				s := c.servers[id]
				if s.down {
					t.Fatalf("down server %d present in index", id)
				}
				if want := ix.order.cell(s.Free); cell != want {
					t.Fatalf("server %d: filed in cell %d, free vector %v belongs in %d", id, cell, s.Free, want)
				}
				if key != s.Free.Weighted() {
					t.Fatalf("server %d: stale key %v != %v", id, key, s.Free.Weighted())
				}
				if prevKey > key || (prevKey == key && prevID >= id) {
					t.Fatalf("index out of order: (%v,%d) before (%v,%d)", prevKey, prevID, key, id)
				}
				prevKey, prevID = key, id
				filed[int(id)-sh.lo]++
				inCell++
				seen++
			}
			if inCell == 0 || int(ix.count[cell]) != inCell {
				t.Fatalf("shard %d cell %d: marked non-empty with count %d, walk met %d servers", si, cell, ix.count[cell], inCell)
			}
		}
		if ix.lo != first || ix.hi != last {
			t.Fatalf("shard %d: cached non-empty bounds [%d,%d], walk met [%d,%d]", si, ix.lo, ix.hi, first, last)
		}
		for cell, ms := range ix.members {
			pop := 0
			for _, w := range ms {
				pop += bits.OnesCount64(w)
			}
			marked := ix.nonEmpty[cell/64]&(1<<(uint(cell)%64)) != 0
			if pop != int(ix.count[cell]) || marked != (pop > 0) {
				t.Fatalf("shard %d cell %d: %d bits set, count %d, non-empty bit %v", si, cell, pop, ix.count[cell], marked)
			}
		}
		for _, s := range c.servers[sh.lo:sh.hi] {
			if c.shardFor(s.ID) != sh {
				t.Fatalf("shardFor(%d) does not return the owning shard [%d,%d)", s.ID, sh.lo, sh.hi)
			}
			if !s.down && filed[s.ID-sh.lo] != 1 {
				t.Fatalf("up server %d filed %d times in shard %d index", s.ID, filed[s.ID-sh.lo], si)
			}
		}
	}
	if nextLo != len(c.servers) {
		t.Fatalf("shards cover [0,%d), want [0,%d)", nextLo, len(c.servers))
	}
	up := 0
	var cap, free, activeCap, activeFree perf.Resources
	active := 0
	for _, s := range c.servers {
		if !s.down {
			up++
		}
		cap = cap.Add(s.Capacity)
		free = free.Add(s.Free)
		if s.allocs > 0 {
			active++
			activeCap = activeCap.Add(s.Capacity)
			activeFree = activeFree.Add(s.Free)
		}
	}
	if seen != up {
		t.Fatalf("indexes hold %d entries, want %d up servers", seen, up)
	}
	if totalCapacity(c) != cap {
		t.Fatalf("shard capacity sum %v != rescan %v", totalCapacity(c), cap)
	}
	if got, want := c.TotalAllocated(), cap.Sub(free); got != want {
		t.Fatalf("TotalAllocated %v != rescan %v", got, want)
	}
	if c.ActiveServers() != active {
		t.Fatalf("ActiveServers %d != rescan %d", c.ActiveServers(), active)
	}
	wantFrag := 0.0
	if w := activeCap.Weighted(); w != 0 {
		wantFrag = activeFree.Weighted() / w
	}
	if got := c.FragmentationRatio(); math.Abs(got-wantFrag) > 1e-9 {
		t.Fatalf("FragmentationRatio %v != rescan %v", got, wantFrag)
	}
}

// TestQuickBestFitMatchesScan drives random mutation sequences over
// randomized (possibly heterogeneous) clusters and checks after every
// step that BestFit/FirstFit answer exactly like the naive linear scan —
// including down servers and memory-constrained fits — and that the
// incremental aggregates match a full rescan.
func TestQuickBestFitMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Shard counts beyond the server count exercise the clamp.
		shards := 1 + rng.Intn(6)
		var c *Cluster
		if rng.Intn(2) == 0 {
			c = New(Options{Servers: 1 + rng.Intn(12), Shards: shards})
		} else {
			c = NewHeterogeneousSharded([]NodePool{
				{Servers: 1 + rng.Intn(4), PerServer: perf.Resources{CPU: 32}, MemMB: 64 * 1024},
				{Servers: 1 + rng.Intn(4), PerServer: perf.Resources{CPU: 8, GPU: 40}},
				{Servers: 1 + rng.Intn(4)},
			}, shards)
		}
		type alloc struct {
			id  int
			res perf.Resources
			mem int
		}
		var live []alloc
		randRes := func() perf.Resources {
			r := perf.Resources{CPU: rng.Intn(10), GPU: rng.Intn(12)}
			if r.IsZero() {
				r.CPU = 1
			}
			return r
		}
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // allocate somewhere it fits
				a := alloc{id: rng.Intn(len(c.servers)), res: randRes(), mem: rng.Intn(40 * 1024)}
				if err := c.Allocate(a.id, a.res, a.mem); err == nil {
					live = append(live, a)
				}
			case op < 7 && len(live) > 0: // release a live allocation
				i := rng.Intn(len(live))
				a := live[i]
				c.Release(a.id, a.res, a.mem)
				live = append(live[:i], live[i+1:]...)
			case op < 9: // flip a server's availability
				c.SetDown(rng.Intn(len(c.servers)), rng.Intn(2) == 0)
			}
			// Probe with several query shapes, including unsatisfiable ones.
			for q := 0; q < 4; q++ {
				res, mem := randRes(), rng.Intn(160*1024)
				gi, gw, gok := c.BestFit(res, mem)
				wi, ww, wok := naiveBestFit(c, res, mem)
				if gi != wi || gok != wok || (gok && gw != ww) {
					t.Logf("seed %d step %d: BestFit(%v,%d) = (%d,%v,%v), scan (%d,%v,%v)",
						seed, step, res, mem, gi, gw, gok, wi, ww, wok)
					return false
				}
				gi, gw, gok = c.FirstFit(res, mem)
				wi, ww, wok = naiveFirstFit(c, res, mem)
				if gi != wi || gok != wok || (gok && gw != ww) {
					t.Logf("seed %d step %d: FirstFit mismatch", seed, step)
					return false
				}
			}
		}
		checkIndexInvariants(t, c)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSetDownIdempotentAndIndexMembership(t *testing.T) {
	c := New(Options{Servers: 3})
	c.SetDown(1, true)
	c.SetDown(1, true) // repeated marks must not corrupt the index
	checkIndexInvariants(t, c)
	if id, _, ok := c.BestFit(perf.ServerCapacity(), 0); !ok || id == 1 {
		t.Fatalf("BestFit = (%d,%v), want a non-down server", id, ok)
	}
	c.SetDown(1, false)
	c.SetDown(1, false)
	checkIndexInvariants(t, c)
	// A recovered server is placeable again.
	c.SetDown(0, true)
	c.SetDown(2, true)
	if id, _, ok := c.BestFit(perf.Resources{CPU: 1}, 0); !ok || id != 1 {
		t.Fatalf("BestFit after recovery = (%d,%v), want server 1", id, ok)
	}
}

func TestBestFitPrefersFullestServer(t *testing.T) {
	c := New(Options{Servers: 3})
	// Server 1 is half full, server 2 nearly full: best fit for a small
	// candidate is the fullest server that still fits.
	if err := c.Allocate(1, perf.Resources{CPU: 8, GPU: 10}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(2, perf.Resources{CPU: 14, GPU: 18}, 0); err != nil {
		t.Fatal(err)
	}
	id, _, ok := c.BestFit(perf.Resources{CPU: 2, GPU: 2}, 0)
	if !ok || id != 2 {
		t.Fatalf("BestFit = (%d,%v), want server 2", id, ok)
	}
	// A candidate too big for server 2 falls back to server 1.
	id, _, ok = c.BestFit(perf.Resources{CPU: 4, GPU: 2}, 0)
	if !ok || id != 1 {
		t.Fatalf("BestFit = (%d,%v), want server 1", id, ok)
	}
	// Memory pressure alone must also disqualify.
	if err := c.Allocate(2, perf.Resources{CPU: 1}, perf.ServerMemoryMB-1024); err != nil {
		t.Fatal(err)
	}
	id, _, ok = c.BestFit(perf.Resources{CPU: 1}, 2048)
	if !ok || id != 1 {
		t.Fatalf("BestFit under memory pressure = (%d,%v), want server 1", id, ok)
	}
}

// keyID is one entry of the index's order.
type keyID struct {
	key float64
	id  int32
}

// indexSequence reads the whole index through the two walk primitives
// the placement queries use.
func indexSequence(ix *freeIndex) []keyID {
	var seq []keyID
	for cell := ix.nextCell(0); cell >= 0; cell = ix.nextCell(cell + 1) {
		for id := ix.nextID(cell, ix.base); id >= 0; id = ix.nextID(cell, id+1) {
			seq = append(seq, keyID{ix.order.cells[cell].key, id})
		}
	}
	return seq
}

// TestIndexMatchesSortedReference drives a bare freeIndex with seeded
// random insert / remove / move steps and compares its full ascending
// (key, id) sequence, after every step, with a plainly sorted slice of
// the up servers. The grids cover one and several bitmap words, a
// non-zero base, mixed capacities, servers down from the start, and a
// coarse injected key under which different free vectors tie — those
// must still come out in id order.
func TestIndexMatchesSortedReference(t *testing.T) {
	testbed := perf.ServerCapacity()
	cases := []struct {
		name string
		caps []perf.Resources // cycled over the servers
		n    int
		base int
		key  func(perf.Resources) float64
		tied bool
	}{
		{"homogeneous", []perf.Resources{testbed}, 40, 0, perf.Resources.Weighted, false},
		{"homogeneous, three words, offset base", []perf.Resources{testbed}, 130, 1250, perf.Resources.Weighted, false},
		{"heterogeneous", []perf.Resources{{CPU: 32}, {CPU: 8, GPU: 40}, testbed}, 70, 7, perf.Resources.Weighted, false},
		{"injected key ties", []perf.Resources{{CPU: 4, GPU: 4}, {CPU: 2, GPU: 6}}, 70, 3,
			func(r perf.Resources) float64 { return float64(r.CPU + r.GPU) }, true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			servers := make([]*Server, tc.n)
			var grid perf.Resources
			for i := range servers {
				c := tc.caps[i%len(tc.caps)]
				grid.CPU, grid.GPU = max(grid.CPU, c.CPU), max(grid.GPU, c.GPU)
				servers[i] = &Server{ID: tc.base + i, Capacity: c, down: rng.Intn(8) == 0,
					Free: perf.Resources{CPU: rng.Intn(c.CPU + 1), GPU: rng.Intn(c.GPU + 1)}}
			}
			var ix freeIndex
			ix.build(servers, tc.base, newCellOrder(grid.CPU, grid.GPU, tc.key))
			sawTie := false
			for step := 0; step <= 300; step++ {
				if step > 0 {
					s := servers[rng.Intn(tc.n)]
					switch op := rng.Intn(10); {
					case op < 7: // Allocate / Release: the free vector changes
						to := perf.Resources{CPU: rng.Intn(s.Capacity.CPU + 1), GPU: rng.Intn(s.Capacity.GPU + 1)}
						if !s.down {
							ix.move(int32(s.ID), s.Free, to)
						}
						s.Free = to
					case s.down: // SetDown(false)
						s.down = false
						ix.insert(int32(s.ID), s.Free)
					default: // SetDown(true)
						s.down = true
						ix.remove(int32(s.ID), s.Free)
					}
				}
				var want []keyID
				for _, s := range servers {
					if !s.down {
						want = append(want, keyID{tc.key(s.Free), int32(s.ID)})
					}
				}
				sort.Slice(want, func(a, b int) bool {
					if want[a].key != want[b].key {
						return want[a].key < want[b].key
					}
					return want[a].id < want[b].id
				})
				got := indexSequence(&ix)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, seed %d, step %d: index sequence\n%v\nsorted reference\n%v", tc.name, seed, step, got, want)
				}
				for i := 1; i < len(got); i++ {
					a, b := servers[int(got[i-1].id)-tc.base], servers[int(got[i].id)-tc.base]
					sawTie = sawTie || (got[i-1].key == got[i].key && a.Free != b.Free)
				}
				if k, ok := ix.minKey(); ok != (len(want) > 0) || (ok && k != want[0].key) {
					t.Fatalf("%s, seed %d, step %d: minKey = (%v,%v), reference %v", tc.name, seed, step, k, ok, want)
				}
				if k, ok := ix.maxKey(); ok != (len(want) > 0) || (ok && k != want[len(want)-1].key) {
					t.Fatalf("%s, seed %d, step %d: maxKey = (%v,%v), reference %v", tc.name, seed, step, k, ok, want)
				}
			}
			if sawTie != tc.tied {
				t.Fatalf("%s, seed %d: adjacent servers with equal keys and different free vectors seen = %v, want %v",
					tc.name, seed, sawTie, tc.tied)
			}
		}
	}
}

// TestIndexEmptiesAndRefills takes every server of a shard down and back
// up: the cached key bounds must follow the index through empty.
func TestIndexEmptiesAndRefills(t *testing.T) {
	c := New(Options{Servers: 5})
	if err := c.Allocate(2, perf.Resources{CPU: 3, GPU: 1}, 0); err != nil {
		t.Fatal(err)
	}
	for _, down := range []bool{true, false} {
		for id := 0; id < len(c.servers); id++ {
			c.SetDown(id, down)
			checkIndexInvariants(t, c)
		}
		if _, any := c.shards[0].index.minKey(); any == down {
			t.Fatalf("all servers down = %v, but minKey reports entries = %v", down, any)
		}
	}
}

// TestAllocateReleaseDoNotAllocate pins the mutators' cost model: once a
// cell's bitmap exists, moving a server between cells touches two bits
// and allocates nothing. A server alone in its shard empties each cell
// it leaves, which is the index's highest on Allocate (prevBit finds the
// next) and its lowest on Release (nextCell).
func TestAllocateReleaseDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		id   int
	}{
		{"among peers", Options{Servers: 200, Shards: 4}, 77},
		{"alone in its shard", Options{Servers: 4, Shards: 4}, 2},
	} {
		c := New(tc.opts)
		res := perf.Resources{CPU: 2, GPU: 3}
		if err := c.Allocate(tc.id, res, 1024); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			c.Release(tc.id, res, 1024)
			if err := c.Allocate(tc.id, res, 1024); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Release+Allocate = %v allocs, want 0", tc.name, allocs)
		}
	}
}
