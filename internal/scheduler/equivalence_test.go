package scheduler

// equivalence_test.go proves the indexed placement path picks exactly
// the same (server, candidate) decisions as the pre-index linear scan:
// naiveScheduleOne below is a faithful replica of the old code (scan
// every server per candidate), and the test drives both against mirrored
// randomized clusters — heterogeneous pools, down servers, pre-existing
// allocations, memory-constrained fits — comparing every decision of
// every Schedule call. Figures 11, 13 and 17b rest on these decisions
// being bit-identical.

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

// naiveScheduleOne is the old O(candidates x servers) pass, kept as the
// reference implementation.
func naiveScheduleOne(p *Plan, rps float64, cl *cluster.Cluster) (Decision, bool) {
	for _, g := range p.groups {
		var ib []Candidate
		if g.b == 1 {
			ib = g.cands
		} else {
			for _, c := range g.cands {
				if rps >= c.Bounds.RLow {
					ib = append(ib, c)
				}
			}
		}
		if len(ib) == 0 {
			continue
		}
		usable := func(c Candidate) float64 { return c.Bounds.RUp }
		type nfit struct {
			c     Candidate
			srv   int
			freeW float64
		}
		var fits []nfit
		maxPerRes := 0.0
		for _, c := range ib {
			srv := -1
			freeW := math.Inf(1)
			cl.EachServer(func(s *cluster.Server) bool {
				if s.Down() || !s.Free.Fits(c.Res) || s.MemFreeMB < p.Fn.Model.MemoryMB {
					return true
				}
				if p.opts.DisableRS {
					srv, freeW = s.ID, s.Free.Weighted()
					return false
				}
				if w := s.Free.Weighted(); w < freeW {
					srv, freeW = s.ID, w
				}
				return true
			})
			if srv < 0 {
				continue
			}
			fits = append(fits, nfit{c: c, srv: srv, freeW: freeW})
			if v := usable(c) / c.Res.Weighted(); v > maxPerRes {
				maxPerRes = v
			}
		}
		if len(fits) == 0 {
			continue
		}
		var best Decision
		bestE := math.Inf(-1)
		for _, f := range fits {
			w := f.c.Res.Weighted()
			num := (usable(f.c) / w) / maxPerRes
			if num < 0.95 && !p.opts.DisableRS {
				continue
			}
			e := efficiency(num, w, f.freeW, p.opts.DisableRS, f.c.Bounds.RUp)
			if e > bestE {
				bestE = e
				best = Decision{Server: f.srv, Candidate: f.c}
			}
		}
		return best, true
	}
	return Decision{}, false
}

// naiveSchedule replicates Plan.Schedule on top of naiveScheduleOne.
func naiveSchedule(p *Plan, rps float64, cl *cluster.Cluster) (placed []Decision, residual float64) {
	residual = rps
	for residual > 0 && len(placed) < p.opts.MaxInstancesPerCall {
		d, ok := naiveScheduleOne(p, residual, cl)
		if !ok {
			break
		}
		if err := cl.Allocate(d.Server, d.Res, p.Fn.Model.MemoryMB); err != nil {
			panic("naive schedule: placement no longer fits: " + err.Error())
		}
		placed = append(placed, d)
		residual -= d.Bounds.RUp
	}
	if residual < 0 {
		residual = 0
	}
	return placed, residual
}

// mirroredClusters builds two identical clusters and applies the same
// random perturbations (down servers, partial allocations) to both.
func mirroredClusters(rng *rand.Rand) (a, b *cluster.Cluster) {
	opts := cluster.Options{Servers: 2 + rng.Intn(30)}
	seed := rng.Int63()
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	a, b = cluster.New(opts), cluster.New(opts)
	perturb := func(c *cluster.Cluster, r *rand.Rand) {
		n := opts.Servers
		for i := 0; i < n/4; i++ {
			c.SetDown(r.Intn(n), true)
		}
		for i := 0; i < n; i++ {
			id := r.Intn(n)
			res := perf.Resources{CPU: r.Intn(12), GPU: r.Intn(16)}
			if res.IsZero() {
				res.CPU = 1
			}
			// Random memory pressure, occasionally near-total, so some
			// servers fit by CPU/GPU but fail the memory constraint.
			mem := r.Intn(perf.ServerMemoryMB)
			_ = c.Allocate(id, res, mem)
		}
	}
	perturb(a, r1)
	perturb(b, r2)
	return a, b
}

func TestIndexedMatchesLinearScan(t *testing.T) {
	models := []string{"ResNet-50", "MobileNet", "TextCNN-69", "MNIST", "SSD", "Bert-v1"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		name := models[rng.Intn(len(models))]
		slo := time.Duration(80+rng.Intn(400)) * time.Millisecond
		fn := Function{Name: name, Model: model.MustGet(name), SLO: slo}
		opts := Options{DisableRS: rng.Intn(4) == 0, MaxInstancesPerCall: 200}
		p := BuildPlan(fn, testPred, opts)
		if !p.Feasible() {
			return true
		}
		clIndexed, clNaive := mirroredClusters(rng)
		for round := 0; round < 3; round++ {
			rps := rng.Float64() * 5000
			got, gotRes := p.Schedule(rps, clIndexed)
			want, wantRes := naiveSchedule(p, rps, clNaive)
			if gotRes != wantRes || len(got) != len(want) {
				t.Logf("seed %d round %d: placed %d residual %v, naive %d residual %v",
					seed, round, len(got), gotRes, len(want), wantRes)
				return false
			}
			for i := range got {
				if got[i].Server != want[i].Server || got[i].Candidate != want[i].Candidate {
					t.Logf("seed %d round %d decision %d: indexed %+v, naive %+v",
						seed, round, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedMatchesLinearScanWithFailures interleaves scheduling with
// server failures and recoveries: the index must track SetDown exactly.
func TestIndexedMatchesLinearScanWithFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := BuildPlan(resnetFn(), testPred, Options{MaxInstancesPerCall: 50})
	a := cluster.New(cluster.Options{Servers: 12})
	b := cluster.New(cluster.Options{Servers: 12})
	for round := 0; round < 20; round++ {
		id, down := rng.Intn(12), rng.Intn(2) == 0
		a.SetDown(id, down)
		b.SetDown(id, down)
		rps := rng.Float64() * 800
		got, gotRes := p.Schedule(rps, a)
		want, wantRes := naiveSchedule(p, rps, b)
		if gotRes != wantRes || len(got) != len(want) {
			t.Fatalf("round %d: placed %d/%v vs naive %d/%v", round, len(got), gotRes, len(want), wantRes)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d decision %d: %+v vs %+v", round, i, got[i], want[i])
			}
		}
		// Free everything placed this round on both, keeping the mirrors
		// aligned for the next round.
		for _, d := range got {
			a.Release(d.Server, d.Res, p.Fn.Model.MemoryMB)
			b.Release(d.Server, d.Res, p.Fn.Model.MemoryMB)
		}
	}
}
