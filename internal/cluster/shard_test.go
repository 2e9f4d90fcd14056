package cluster

// shard_test.go targets the shard-boundary edge cases directly: down
// servers sitting exactly on shard edges, heterogeneous pools straddling
// shard boundaries, and memory-only rejections that force the best-fit
// walk across a boundary. Every assertion is an equivalence against an
// unsharded (single-shard) mirror of the same cluster — the reference
// the merge rule must reproduce bit for bit.

import (
	"math/rand"
	"testing"

	"github.com/tanklab/infless/internal/perf"
)

// mirrorSharded builds the same heterogeneous cluster twice: once with
// the given shard count and once unsharded.
func mirrorSharded(pools []NodePool, shards int) (sharded, flat *Cluster) {
	return NewHeterogeneousSharded(pools, shards), NewHeterogeneous(pools)
}

// straddlePools is sized so pool boundaries (7, 12, 21) never coincide
// with 4-way shard bounds of 21 servers (5, 10, 15): every shard mixes
// server types.
func straddlePools() []NodePool {
	return []NodePool{
		{Servers: 7, PerServer: perf.Resources{CPU: 32}, MemMB: 64 * 1024},
		{Servers: 5, PerServer: perf.Resources{CPU: 8, GPU: 40}},
		{Servers: 9},
	}
}

func sameAnswer(t *testing.T, what string, gi int, gw float64, gok bool, wi int, ww float64, wok bool) {
	t.Helper()
	if gi != wi || gok != wok || (gok && gw != ww) {
		t.Fatalf("%s: sharded (%d,%v,%v) != flat (%d,%v,%v)", what, gi, gw, gok, wi, ww, wok)
	}
}

func TestShardBounds(t *testing.T) {
	cases := []struct {
		n, count int
		want     []int
	}{
		{8, 1, []int{0, 8}},
		{8, 4, []int{0, 2, 4, 6, 8}},
		{10, 3, []int{0, 3, 6, 10}},
		{3, 16, []int{0, 1, 2, 3}}, // clamp: never more shards than servers
		{5, 0, []int{0, 5}},        // zero/negative counts mean one shard
	}
	for _, tc := range cases {
		got := shardBounds(tc.n, tc.count)
		if len(got) != len(tc.want) {
			t.Fatalf("shardBounds(%d,%d) = %v, want %v", tc.n, tc.count, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("shardBounds(%d,%d) = %v, want %v", tc.n, tc.count, got, tc.want)
			}
		}
	}
}

// TestShardEdgeDownServers marks exactly the servers on both sides of
// every shard boundary down and checks the merge still matches the flat
// reference — an empty-prefix/empty-suffix stress for the prune logic.
func TestShardEdgeDownServers(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 7} {
		sharded, flat := mirrorSharded(straddlePools(), shards)
		for si := 1; si < len(sharded.shards); si++ {
			edge := sharded.shards[si].lo
			for _, id := range []int{edge - 1, edge} {
				sharded.SetDown(id, true)
				flat.SetDown(id, true)
			}
		}
		probes := []struct {
			res perf.Resources
			mem int
		}{
			{perf.Resources{CPU: 1}, 0},
			{perf.Resources{CPU: 16}, 0},
			{perf.Resources{CPU: 4, GPU: 8}, 32 * 1024},
			{perf.Resources{GPU: 40}, 0},
		}
		for _, pr := range probes {
			gi, gw, gok := sharded.BestFit(pr.res, pr.mem)
			wi, ww, wok := flat.BestFit(pr.res, pr.mem)
			sameAnswer(t, "BestFit with edge servers down", gi, gw, gok, wi, ww, wok)
			gi, gw, gok = sharded.FirstFit(pr.res, pr.mem)
			wi, ww, wok = flat.FirstFit(pr.res, pr.mem)
			sameAnswer(t, "FirstFit with edge servers down", gi, gw, gok, wi, ww, wok)
		}
		checkIndexInvariants(t, sharded)
	}
}

// TestShardWholeShardDown downs an entire interior shard: its index goes
// empty and both prunes must skip it without disturbing the merge.
func TestShardWholeShardDown(t *testing.T) {
	sharded, flat := mirrorSharded(straddlePools(), 4)
	sh := &sharded.shards[1]
	for id := sh.lo; id < sh.hi; id++ {
		sharded.SetDown(id, true)
		flat.SetDown(id, true)
	}
	if _, any := sh.index.maxKey(); any {
		t.Fatal("downed shard still has indexed entries")
	}
	gi, gw, gok := sharded.BestFit(perf.Resources{CPU: 2}, 0)
	wi, ww, wok := flat.BestFit(perf.Resources{CPU: 2}, 0)
	sameAnswer(t, "BestFit with a whole shard down", gi, gw, gok, wi, ww, wok)
	// Recovery restores membership and equivalence.
	for id := sh.lo; id < sh.hi; id++ {
		sharded.SetDown(id, false)
		flat.SetDown(id, false)
	}
	gi, gw, gok = sharded.BestFit(perf.Resources{CPU: 2}, 0)
	wi, ww, wok = flat.BestFit(perf.Resources{CPU: 2}, 0)
	sameAnswer(t, "BestFit after shard recovery", gi, gw, gok, wi, ww, wok)
	checkIndexInvariants(t, sharded)
}

// TestShardMemoryRejectionCrossesBoundary arranges the fullest fitting
// server (by weighted capacity) to fail only on memory, so the winning
// walk must skip it and the merge must consider a later shard.
func TestShardMemoryRejectionCrossesBoundary(t *testing.T) {
	// 21 servers × 4 shards → bounds 0,5,10,15,21; the CPU pool spans
	// servers 0–6, straddling the first boundary at 5.
	sharded, flat := mirrorSharded(straddlePools(), 4)
	apply := func(c *Cluster) {
		// Server 2 (shard 0, CPU pool) becomes the fullest fitting server
		// by weighted capacity but with almost no memory left.
		if err := c.Allocate(2, perf.Resources{CPU: 31}, 64*1024-512); err != nil {
			t.Fatal(err)
		}
		// Server 6 (same pool, but shard 1) is the runner-up.
		if err := c.Allocate(6, perf.Resources{CPU: 20}, 1024); err != nil {
			t.Fatal(err)
		}
	}
	apply(sharded)
	apply(flat)
	// Memory-free probe: best fit is the nearly-full server 2.
	gi, gw, gok := sharded.BestFit(perf.Resources{CPU: 1}, 0)
	wi, ww, wok := flat.BestFit(perf.Resources{CPU: 1}, 0)
	sameAnswer(t, "BestFit ignoring memory", gi, gw, gok, wi, ww, wok)
	if gi != 2 {
		t.Fatalf("expected fullest server 2 to win without memory pressure, got %d", gi)
	}
	// Memory-demanding probe: server 2 is rejected on memory alone and
	// the merged answer must cross into shard 1 to reach server 6.
	gi, gw, gok = sharded.BestFit(perf.Resources{CPU: 1}, 2048)
	wi, ww, wok = flat.BestFit(perf.Resources{CPU: 1}, 2048)
	sameAnswer(t, "BestFit under memory rejection", gi, gw, gok, wi, ww, wok)
	if gi != 6 {
		t.Fatalf("memory-constrained probe should land on server 6 across the boundary, got %d", gi)
	}
}

// TestShardRangeQueriesComposeToFull splits the shard range at every
// point and checks that merging the two partial BestFitShards answers by
// the (key, id) rule reproduces the full query — the property the
// scheduler's fan-out relies on.
func TestShardRangeQueriesComposeToFull(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sharded, _ := mirrorSharded(straddlePools(), 7)
	for i := 0; i < 40; i++ {
		id := rng.Intn(len(sharded.servers))
		res := perf.Resources{CPU: rng.Intn(8), GPU: rng.Intn(10)}
		if res.IsZero() {
			res.CPU = 1
		}
		_ = sharded.Allocate(id, res, rng.Intn(16*1024))
	}
	probe := perf.Resources{CPU: 2, GPU: 2}
	n := len(sharded.shards)
	fi, fw, fok := sharded.BestFit(probe, 1024)
	for cut := 0; cut <= n; cut++ {
		li, lw, lok := sharded.BestFitShards(0, cut, probe, 1024)
		ri, rw, rok := sharded.BestFitShards(cut, n, probe, 1024)
		mi, mw, mok := li, lw, lok
		if rok && (!mok || rw < mw) { // ties lose: right range has larger ids
			mi, mw, mok = ri, rw, rok
		}
		sameAnswer(t, "partial range merge", mi, mw, mok, fi, fw, fok)
	}
}

// TestShardedQuickEquivalence is the randomized sweep: mirrored
// sharded/unsharded clusters under a shared mutation schedule, probed
// after every step. It subsumes the targeted cases above with random
// shard counts, straddling pools, edge downs and memory pressure.
func TestShardedQuickEquivalence(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 12
	}
	for seed := int64(0); seed < int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := 2 + rng.Intn(7)
		pools := []NodePool{
			{Servers: 1 + rng.Intn(9), PerServer: perf.Resources{CPU: 32}, MemMB: 64 * 1024},
			{Servers: 1 + rng.Intn(9), PerServer: perf.Resources{CPU: 8, GPU: 40}},
			{Servers: 1 + rng.Intn(9)},
		}
		sharded, flat := mirrorSharded(pools, shards)
		type alloc struct {
			id  int
			res perf.Resources
			mem int
		}
		var live []alloc
		for step := 0; step < 80; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				a := alloc{id: rng.Intn(len(sharded.servers)), res: perf.Resources{CPU: rng.Intn(10), GPU: rng.Intn(12)}, mem: rng.Intn(40 * 1024)}
				if a.res.IsZero() {
					a.res.CPU = 1
				}
				err1 := sharded.Allocate(a.id, a.res, a.mem)
				err2 := flat.Allocate(a.id, a.res, a.mem)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d step %d: Allocate diverged: %v vs %v", seed, step, err1, err2)
				}
				if err1 == nil {
					live = append(live, a)
				}
			case op < 7 && len(live) > 0:
				i := rng.Intn(len(live))
				a := live[i]
				sharded.Release(a.id, a.res, a.mem)
				flat.Release(a.id, a.res, a.mem)
				live = append(live[:i], live[i+1:]...)
			case op < 9:
				id, down := rng.Intn(len(sharded.servers)), rng.Intn(2) == 0
				sharded.SetDown(id, down)
				flat.SetDown(id, down)
			}
			res := perf.Resources{CPU: rng.Intn(10), GPU: rng.Intn(12)}
			if res.IsZero() {
				res.CPU = 1
			}
			mem := rng.Intn(160 * 1024)
			gi, gw, gok := sharded.BestFit(res, mem)
			wi, ww, wok := flat.BestFit(res, mem)
			sameAnswer(t, "BestFit random sweep", gi, gw, gok, wi, ww, wok)
			gi, gw, gok = sharded.FirstFit(res, mem)
			wi, ww, wok = flat.FirstFit(res, mem)
			sameAnswer(t, "FirstFit random sweep", gi, gw, gok, wi, ww, wok)
			if totalCapacity(sharded) != totalCapacity(flat) ||
				sharded.TotalAllocated() != flat.TotalAllocated() ||
				sharded.ActiveServers() != flat.ActiveServers() ||
				sharded.FragmentationRatio() != flat.FragmentationRatio() {
				t.Fatalf("seed %d step %d: aggregates diverged", seed, step)
			}
		}
		checkIndexInvariants(t, sharded)
		checkIndexInvariants(t, flat)
	}
}
