package bench

// scale.go reproduces the large-scale simulation (Section 5.3, Figures
// 17 and 18). As in the paper, these experiments run the real scheduling
// code against simulated machines: invocations only feed arrival-rate
// collection, no instance executes, and we report the theoretical
// throughput upper bound, the scheduling overhead, and the fragment
// ratio.

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/scheduler"
)

var scalePred = func() scheduler.Predictor {
	return scheduler.NewPredictorCache(profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions())))
}()

// scaleFunction is one synthetic function of the large-scale experiment.
type scaleFunction struct {
	fn   scheduler.Function
	load float64
}

// makeFunctions builds n functions cycling over the model zoo with
// varied SLOs and loads, as the paper does ("no more than 40 functions by
// varying their respective SLOs and request loads").
func makeFunctions(n int, sloBase time.Duration, rng *rand.Rand) []scaleFunction {
	zoo := model.Table1()
	out := make([]scaleFunction, 0, n)
	for i := 0; i < n; i++ {
		m := zoo[i%len(zoo)]
		slo := sloBase + time.Duration(rng.Intn(150))*time.Millisecond
		if m.Name == "Bert-v1" || m.Name == "VGGNet-19" || m.Name == "FaceNet" {
			slo += 200 * time.Millisecond // big models get looser SLOs
		}
		load := 500 + rng.Float64()*4500
		out = append(out, scaleFunction{
			fn:   scheduler.Function{Name: fmt.Sprintf("f%02d-%s", i, m.Name), Model: m, SLO: slo},
			load: load,
		})
	}
	return out
}

// makeFixedSLOFunctions is makeFunctions with one SLO for every function
// (the Figure 18b sweep controls the SLO exactly; large models whose
// minimum execution time exceeds the SLO are skipped, as the paper's
// 20-function mix uses servable models only).
func makeFixedSLOFunctions(n int, slo time.Duration, rng *rand.Rand) []scaleFunction {
	zoo := model.Table1()
	out := make([]scaleFunction, 0, n)
	i := 0
	for len(out) < n {
		m := zoo[i%len(zoo)]
		i++
		if m.MinExecTime(1) > slo {
			continue // cannot meet this SLO on any configuration
		}
		out = append(out, scaleFunction{
			fn:   scheduler.Function{Name: fmt.Sprintf("f%02d-%s", i, m.Name), Model: m, SLO: slo},
			load: 500 + rng.Float64()*4500,
		})
	}
	return out
}

// packer packs functions onto a cluster and returns the absorbed RPS and
// the instances placed.
type packer func(fns []scaleFunction, cl *cluster.Cluster) (absorbed float64, instances int)

// The uniform baselines of the large-scale experiments: BATCH picks one
// configuration per function from a three-size ladder, OpenFaaS+ runs
// batch 1 on the smallest.
var (
	batchLadder  = []perf.Resources{{CPU: 2, GPU: 1}, {CPU: 4, GPU: 2}, {CPU: 8, GPU: 4}}
	batchSizes   = []int{1, 2, 4, 8, 16, 32}
	packOpenFaaS = packUniform([]perf.Resources{{CPU: 2, GPU: 1}}, []int{1}, false)
)

// packInfless packs the functions onto the cluster with Algorithm 1.
func packInfless(fns []scaleFunction, cl *cluster.Cluster) (absorbed float64, instances int) {
	for _, sf := range fns {
		plan := scheduler.BuildPlan(sf.fn, scalePred, scheduler.Options{})
		placed, residual := plan.Schedule(sf.load, cl)
		absorbed += sf.load - residual
		instances += len(placed)
	}
	return absorbed, instances
}

// packUniform packs functions BATCH- or OpenFaaS-style: a single uniform
// configuration per function, placed first-fit (or best-fit when rs is
// true — the BATCH+RS variant of Figure 17b).
func packUniform(ladder []perf.Resources, batches []int, rs bool) packer {
	return func(fns []scaleFunction, cl *cluster.Cluster) (absorbed float64, instances int) {
		for _, sf := range fns {
			cand, ok := uniformCandidate(sf.fn, ladder, batches)
			if !ok {
				continue
			}
			for remaining := sf.load; remaining > 0; remaining -= cand.Bounds.RUp {
				server, fit := pickServer(cl, cand.Res, sf.fn.Model.MemoryMB, rs)
				if !fit || cl.Allocate(server, cand.Res, sf.fn.Model.MemoryMB) != nil {
					break
				}
				instances++
				absorbed += min(cand.Bounds.RUp, remaining)
			}
		}
		return absorbed, instances
	}
}

func uniformCandidate(fn scheduler.Function, ladder []perf.Resources, batches []int) (scheduler.Candidate, bool) {
	var best scheduler.Candidate
	found := false
	for _, b := range batches {
		if b > fn.Model.MaxBatch {
			continue
		}
		for _, res := range ladder {
			if b > 2*res.CPU {
				continue // batch-to-size coupling, as in baselines.BatchSys
			}
			texec := scalePred.Predict(fn.Model, b, res)
			bounds, err := batching.RateBounds(texec, fn.SLO, b)
			if err != nil {
				continue
			}
			if !found || b > best.B {
				best = scheduler.Candidate{B: b, Res: res, TExec: texec, Bounds: bounds}
				found = true
			}
		}
	}
	return best, found
}

// pickServer selects a host. bestFit=true packs tightly (the BATCH+RS
// variant: Eq. 10's fragmentation term); bestFit=false spreads across the
// least-allocated server, which is what the vanilla Kubernetes scheduler
// underneath OpenFaaS/BATCH does by default — and what produces their
// high fragment ratios in Figure 17b.
func pickServer(cl *cluster.Cluster, res perf.Resources, memMB int, bestFit bool) (int, bool) {
	bestID := -1
	bestFree := 0.0
	cl.EachServer(func(s *cluster.Server) bool {
		if s.Down() || !s.Free.Fits(res) || s.MemFreeMB < memMB {
			return true
		}
		free := s.Free.Weighted()
		better := free < bestFree
		if !bestFit {
			better = free > bestFree // spread: least-allocated first
		}
		if bestID == -1 || better {
			bestID, bestFree = s.ID, free
		}
		return true
	})
	return bestID, bestID != -1
}

// Fig17a measures the wall-clock overhead of Algorithm 1 at increasing
// instance counts on the 2,000-server cluster.
func Fig17a(opts Options) *Table {
	opts.defaults()
	counts := []int{100, 1000, 10000}
	if opts.Quick {
		counts = []int{100, 1000, 4000}
	}
	fn := scheduler.Function{Name: "resnet", Model: model.MustGet("ResNet-50"), SLO: 200 * time.Millisecond}
	series := make([]string, len(counts))
	rows := make([][]cell, len(counts))
	for i, n := range counts {
		plan := scheduler.BuildPlan(fn, scalePred, scheduler.Options{MaxInstancesPerCall: n})
		cl := cluster.New(cluster.Options{Servers: 2000, Shards: opts.Shards})
		start := time.Now()
		ds, _ := plan.Schedule(1e12, cl)
		elapsed := time.Since(start)
		placed := len(ds)
		if placed == 0 {
			series[i], rows[i] = fmt.Sprintf("%d instances", n), []cell{text("-"), text("-")}
			continue
		}
		series[i] = fmt.Sprintf("%d instances", placed)
		rows[i] = []cell{val(ms(elapsed), f1), val(float64(elapsed)/float64(time.Microsecond)/float64(placed), f0)}
	}
	t := newTable("fig17a", "Scheduling overhead (wall clock, 2000 servers)", series, []string{"totalMs", "perInstanceUs"})
	for i, name := range series {
		t.Put(name, rows[i]...)
	}
	t.Note("paper: ~0.5ms per instance; <1s for 10,000 concurrent requests")
	return t
}

// Fig17b compares fragment ratios of the four systems in the large-scale
// packing experiment.
func Fig17b(opts Options) *Table {
	opts.defaults()
	servers := 2000
	nFuncs := 40
	if opts.Quick {
		servers, nFuncs = 200, 20
	}
	t := newTable("fig17b", "Resource fragment ratio (large-scale packing)",
		[]string{"infless", "batch+rs", "batch", "openfaas+"}, []string{"fragment", "absorbedRPS", "instances"})
	packers := map[string]packer{
		"infless":   packInfless,
		"batch+rs":  packUniform(batchLadder, batchSizes, true),
		"batch":     packUniform(batchLadder, batchSizes, false),
		"openfaas+": packOpenFaaS,
	}
	for sys, pack := range packers { // each packs a cluster of its own: order is free
		rng := rand.New(rand.NewSource(opts.Seed))
		fns := makeFunctions(nFuncs, 150*time.Millisecond, rng)
		// A moderate operating point (~40%% of capacity): placement policy
		// shows up in the fragment ratio before the cluster saturates.
		for i := range fns {
			fns[i].load *= 4
		}
		cl := cluster.New(cluster.Options{Servers: servers, Shards: opts.Shards})
		abs, inst := pack(fns, cl)
		t.Put(sys, val(cl.FragmentationRatio(), pct), val(abs, f0), val(float64(inst), f0))
	}

	t.Note("paper: INFless ~15%%, lowest of the four; BATCH+RS < BATCH shows the scheduling algorithm generalizes")
	return t
}

// Fig18a reports the theoretical throughput upper bound per unit of
// resource as the number of functions grows.
func Fig18a(opts Options) *Table {
	opts.defaults()
	servers := 2000
	if opts.Quick {
		servers = 400
	}
	counts := []int{10, 20, 30, 40}
	t := newTable("fig18a", "Large-scale throughput per resource vs #functions", labels("%d funcs", counts),
		[]string{"infless", "batch", "openfaas+", "vsBatch", "vsOFP"})
	points := make([][3]float64, len(counts))
	opts.parallelFor(len(counts), func(i int) {
		n := counts[i]
		mk := func() []scaleFunction {
			rng := rand.New(rand.NewSource(opts.Seed + int64(n)))
			fns := makeFunctions(n, 150*time.Millisecond, rng)
			for j := range fns {
				fns[j].load *= 20 // drive the cluster to saturation
			}
			return fns
		}
		perRes := func(pack packer) float64 {
			cl := cluster.New(cluster.Options{Servers: servers, Shards: opts.Shards})
			abs, _ := pack(mk(), cl)
			w := cl.TotalAllocated().Weighted()
			if w == 0 {
				return 0
			}
			return abs / w
		}
		points[i] = [3]float64{perRes(packInfless), perRes(packUniform(batchLadder, batchSizes, false)), perRes(packOpenFaaS)}
	})
	for i, r := range t.Rows {
		vi, vb, vo := points[i][0], points[i][1], points[i][2]
		t.Put(r.Name, val(vi, f2), val(vb, f2), val(vo, f2), val(vi/vb, verb("%.1fx")), val(vi/vo, verb("%.1fx")))
	}
	t.Note("paper: INFless 2.6x over BATCH and 4.2x over OpenFaaS+ at scale")
	return t
}

// Fig18b fixes 20 functions and sweeps the latency SLO.
func Fig18b(opts Options) *Table {
	opts.defaults()
	servers := 2000
	if opts.Quick {
		servers = 400
	}
	slos := []time.Duration{30, 50, 75, 100, 150, 300}
	t := newTable("fig18b", "Large-scale INFless throughput per resource vs SLO (20 functions)",
		labels("slo=%dms", slos), []string{"thpt/res", "normalized"})
	vals := make([]float64, len(slos))
	opts.parallelFor(len(slos), func(i int) {
		rng := rand.New(rand.NewSource(opts.Seed))
		fns := makeFixedSLOFunctions(20, slos[i]*time.Millisecond, rng)
		for j := range fns {
			fns[j].load *= 4
		}
		cl := cluster.New(cluster.Options{Servers: servers, Shards: opts.Shards})
		abs, _ := packInfless(fns, cl)
		w := cl.TotalAllocated().Weighted()
		if w > 0 {
			vals[i] = abs / w
		}
	})
	// Normalization against the first (nonzero) point happens after the
	// fan-out so it never depends on completion order.
	var first, last float64
	for i, r := range t.Rows {
		v := vals[i]
		if first == 0 {
			first = v
		}
		norm := 0.0
		if first != 0 {
			norm = v / first
		}
		t.Put(r.Name, val(v, f2), val(norm, f2))
		last = norm
	}
	t.Note("paper: relaxing 150ms -> 300ms lifts normalized throughput from 0.7 to 1.0 (here: 1.00 -> %.2f)", last)
	return t
}
