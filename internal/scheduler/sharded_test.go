package scheduler

// sharded_test.go extends the equivalence suite across the shard axis:
// every Schedule decision on a sharded cluster — serial or fanned over a
// FitPool — must be bit-identical to the single-shard reference. The
// mirrors cover heterogeneous pools straddling shard boundaries, down
// servers at shard edges, memory-constrained fits, and both the RS
// ablation and the default path, at shard counts from 1 to 16 and
// FitWorkers from 1 to more-than-shards.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
)

// mirroredShardedClusters builds the same randomized heterogeneous
// cluster twice — once with 1 shard, once with the given count — and
// applies an identical perturbation schedule to both: down servers
// (biased toward shard edges), random allocations with random memory.
func mirroredShardedClusters(rng *rand.Rand, shards int) (flat, sharded *cluster.Cluster) {
	pools := []cluster.NodePool{
		{Servers: 2 + rng.Intn(10), PerServer: perf.Resources{CPU: 32}, MemMB: 64 * 1024},
		{Servers: 2 + rng.Intn(10), PerServer: perf.Resources{CPU: 8, GPU: 40}},
		{Servers: 2 + rng.Intn(10)},
	}
	flat = cluster.NewHeterogeneous(pools)
	sharded = cluster.NewHeterogeneousSharded(pools, shards)
	n := pools[0].Servers + pools[1].Servers + pools[2].Servers
	seed := rng.Int63()
	perturb := func(c *cluster.Cluster, r *rand.Rand) {
		for i := 0; i < n/4; i++ {
			id := r.Intn(n)
			if r.Intn(2) == 0 {
				// Bias half the failures toward shard-boundary servers of
				// the sharded layout (same ids downed on both mirrors).
				id = id / shards * shards
				if id >= n {
					id = n - 1
				}
			}
			c.SetDown(id, true)
		}
		for i := 0; i < n; i++ {
			id := r.Intn(n)
			res := perf.Resources{CPU: r.Intn(12), GPU: r.Intn(16)}
			if res.IsZero() {
				res.CPU = 1
			}
			mem := r.Intn(perf.ServerMemoryMB)
			_ = c.Allocate(id, res, mem)
		}
	}
	perturb(flat, rand.New(rand.NewSource(seed)))
	perturb(sharded, rand.New(rand.NewSource(seed)))
	return flat, sharded
}

// TestShardedMatchesSingleShard quick-checks full Schedule runs: the
// sharded cluster (with a random shard count and random FitWorkers,
// sometimes exceeding the shard count) must produce exactly the
// single-shard reference decisions, across models, SLOs, the RS
// ablation, and repeated rounds that let allocations accumulate.
func TestShardedMatchesSingleShard(t *testing.T) {
	models := []string{"ResNet-50", "MobileNet", "TextCNN-69", "MNIST", "SSD", "Bert-v1"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		name := models[rng.Intn(len(models))]
		slo := time.Duration(80+rng.Intn(400)) * time.Millisecond
		fn := Function{Name: name, Model: model.MustGet(name), SLO: slo}
		shards := []int{2, 3, 4, 7, 16}[rng.Intn(5)]
		workers := 1 + rng.Intn(shards+2) // sometimes above the shard count
		refOpts := Options{DisableRS: rng.Intn(4) == 0, MaxInstancesPerCall: 200}
		shOpts := refOpts
		shOpts.FitWorkers = workers
		pRef := BuildPlan(fn, testPred, refOpts)
		pSh := BuildPlan(fn, testPred, shOpts)
		if !pRef.Feasible() {
			return true
		}
		flat, sharded := mirroredShardedClusters(rng, shards)
		for round := 0; round < 3; round++ {
			rps := rng.Float64() * 5000
			want, wantRes := pRef.Schedule(rps, flat)
			got, gotRes := pSh.Schedule(rps, sharded)
			if gotRes != wantRes || len(got) != len(want) {
				t.Logf("seed %d round %d (shards=%d workers=%d): placed %d residual %v, reference %d residual %v",
					seed, round, shards, workers, len(got), gotRes, len(want), wantRes)
				return false
			}
			for i := range got {
				if got[i].Server != want[i].Server || got[i].Candidate != want[i].Candidate {
					t.Logf("seed %d round %d decision %d (shards=%d workers=%d): sharded %+v, reference %+v",
						seed, round, i, shards, workers, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	n := 30
	if testing.Short() {
		n = 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedFitWorkersEquivalence pins the FitPool fan-out specifically:
// the same plan over the same sharded cluster must decide identically at
// every worker count, including workers > shards.
func TestShardedFitWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fn := resnetFn()
	pools := []cluster.NodePool{
		{Servers: 7, PerServer: perf.Resources{CPU: 32}, MemMB: 64 * 1024},
		{Servers: 5, PerServer: perf.Resources{CPU: 8, GPU: 40}},
		{Servers: 9},
	}
	// Shared perturbation so every worker-count run sees the same state.
	type alloc struct {
		id  int
		res perf.Resources
		mem int
	}
	var pre []alloc
	for i := 0; i < 15; i++ {
		pre = append(pre, alloc{id: rng.Intn(7 + 5 + 9), res: perf.Resources{CPU: 1 + rng.Intn(6), GPU: rng.Intn(8)}, mem: rng.Intn(32 * 1024)})
	}
	run := func(workers int) ([]Decision, float64) {
		cl := cluster.NewHeterogeneousSharded(pools, 4)
		cl.SetDown(5, true)  // first shard boundary
		cl.SetDown(15, true) // last shard boundary
		for _, a := range pre {
			_ = cl.Allocate(a.id, a.res, a.mem)
		}
		p := BuildPlan(fn, testPred, Options{MaxInstancesPerCall: 100, FitWorkers: workers})
		return p.Schedule(900, cl)
	}
	want, wantRes := run(1)
	if len(want) == 0 {
		t.Fatal("reference run placed nothing; test is vacuous")
	}
	for _, workers := range []int{2, 3, 4, 9} {
		got, gotRes := run(workers)
		if gotRes != wantRes || len(got) != len(want) {
			t.Fatalf("workers=%d: placed %d residual %v, want %d residual %v",
				workers, len(got), gotRes, len(want), wantRes)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d decision %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPrefixCutMatchesFullWalk pins the ranked prefix cut against the
// pre-optimization full candidate walk (scheduleOneFullWalk below):
// identical decisions across random clusters, models, SLOs and rounds.
func TestPrefixCutMatchesFullWalk(t *testing.T) {
	models := []string{"ResNet-50", "MobileNet", "TextCNN-69", "MNIST", "SSD", "Bert-v1"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		name := models[rng.Intn(len(models))]
		slo := time.Duration(80+rng.Intn(400)) * time.Millisecond
		fn := Function{Name: name, Model: model.MustGet(name), SLO: slo}
		pCut := BuildPlan(fn, testPred, Options{MaxInstancesPerCall: 200})
		pFull := BuildPlan(fn, testPred, Options{MaxInstancesPerCall: 200})
		if !pCut.Feasible() {
			return true
		}
		shards := 1 + rng.Intn(8)
		a, b := mirroredShardedClusters(rng, shards)
		for round := 0; round < 3; round++ {
			rps := rng.Float64() * 5000
			got, gotRes := pCut.Schedule(rps, a)
			want, wantRes := pFull.scheduleFullWalk(rps, b)
			if gotRes != wantRes || len(got) != len(want) {
				t.Logf("seed %d round %d: cut %d/%v, full %d/%v", seed, round, len(got), gotRes, len(want), wantRes)
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d round %d decision %d: cut %+v, full %+v", seed, round, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	n := 30
	if testing.Short() {
		n = 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// scheduleOneFullWalk is the pre-prefix-cut pass 1, the reference
// TestPrefixCutMatchesFullWalk holds scheduleOne to: query a placement
// for every available candidate, track the best fitting
// throughput-per-resource ratio, then score with the 95% filter in pass
// 2. Same decisions as the ranked walk, ~an order of magnitude more
// placement queries.
func (p *Plan) scheduleOneFullWalk(rps float64, pool *cluster.FitPool) (Decision, bool) {
	memMB := p.Fn.Model.MemoryMB
	for _, g := range p.groups {
		fits := p.fits[:0]
		maxPerRes := 0.0
		for _, c := range g.cands {
			if g.b != 1 && rps < c.Bounds.RLow {
				continue // AvailableConfig
			}
			srv, freeW, ok := pool.BestFit(c.Res, memMB)
			if !ok {
				continue
			}
			perRes := c.Bounds.RUp / c.Res.Weighted()
			fits = append(fits, fit{c: c, srv: srv, freeW: freeW, perRes: perRes})
			if perRes > maxPerRes {
				maxPerRes = perRes
			}
		}
		p.fits = fits
		if len(fits) == 0 {
			continue
		}
		var best Decision
		bestE := math.Inf(-1)
		for _, f := range fits {
			num := f.perRes / maxPerRes
			if num < 0.95 {
				continue
			}
			e := efficiency(num, f.c.Res.Weighted(), f.freeW, false, f.c.Bounds.RUp)
			if e > bestE {
				bestE = e
				best = Decision{Server: f.srv, Candidate: f.c}
			}
		}
		return best, true
	}
	return Decision{}, false
}

// scheduleFullWalk is Plan.Schedule with scheduleOneFullWalk in place of
// scheduleOne.
func (p *Plan) scheduleFullWalk(rps float64, cl *cluster.Cluster) (placed []Decision, residual float64) {
	pool := cl.NewFitPool(p.opts.FitWorkers)
	defer pool.Close()
	residual = rps
	for residual > 0 && len(placed) < p.opts.MaxInstancesPerCall {
		d, ok := p.scheduleOneFullWalk(residual, pool)
		if !ok {
			break
		}
		if err := cl.Allocate(d.Server, d.Res, p.Fn.Model.MemoryMB); err != nil {
			panic("scheduler: placement no longer fits: " + err.Error())
		}
		placed = append(placed, d)
		residual -= d.Bounds.RUp
	}
	if residual < 0 {
		residual = 0
	}
	return placed, residual
}

// TestShardedMatchesSingleShardWithFailures interleaves scheduling with
// shard-edge failures and recoveries, mirroring the unsharded reference
// throughout — SetDown bookkeeping must stay exact under sharding.
func TestShardedMatchesSingleShardWithFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := BuildPlan(resnetFn(), testPred, Options{MaxInstancesPerCall: 50, FitWorkers: 3})
	pRef := BuildPlan(resnetFn(), testPred, Options{MaxInstancesPerCall: 50})
	sharded := cluster.New(cluster.Options{Servers: 12, Shards: 4})
	flat := cluster.New(cluster.Options{Servers: 12})
	edges := []int{0, 2, 3, 5, 6, 8, 9, 11} // both sides of each 3-server shard
	for round := 0; round < 20; round++ {
		id, down := edges[rng.Intn(len(edges))], rng.Intn(2) == 0
		sharded.SetDown(id, down)
		flat.SetDown(id, down)
		rps := rng.Float64() * 800
		got, gotRes := p.Schedule(rps, sharded)
		want, wantRes := pRef.Schedule(rps, flat)
		if gotRes != wantRes || len(got) != len(want) {
			t.Fatalf("round %d: placed %d/%v vs reference %d/%v", round, len(got), gotRes, len(want), wantRes)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d decision %d: %+v vs %+v", round, i, got[i], want[i])
			}
		}
		for _, d := range got {
			sharded.Release(d.Server, d.Res, p.Fn.Model.MemoryMB)
			flat.Release(d.Server, d.Res, p.Fn.Model.MemoryMB)
		}
	}
}
