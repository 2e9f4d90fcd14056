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

// packInfless packs the functions onto the cluster with Algorithm 1 and
// returns the absorbed RPS and total instances placed.
func packInfless(fns []scaleFunction, cl *cluster.Cluster, sched scheduler.Options) (absorbed float64, instances int) {
	for _, sf := range fns {
		plan := scheduler.BuildPlan(sf.fn, scalePred, sched)
		placed, residual := plan.Schedule(sf.load, cl)
		absorbed += sf.load - residual
		instances += len(placed)
	}
	return absorbed, instances
}

// packUniform packs functions BATCH- or OpenFaaS-style: a single uniform
// configuration per function, placed first-fit (or best-fit when rs is
// true — the BATCH+RS variant of Figure 17b).
func packUniform(fns []scaleFunction, cl *cluster.Cluster, ladder []perf.Resources, batches []int, rs bool) (absorbed float64, instances int) {
	for _, sf := range fns {
		cand, ok := uniformCandidate(sf.fn, ladder, batches)
		if !ok {
			continue
		}
		remaining := sf.load
		for remaining > 0 {
			server, fit := pickServer(cl, cand.Res, sf.fn.Model.MemoryMB, rs)
			if !fit {
				break
			}
			if err := cl.Allocate(server, cand.Res, sf.fn.Model.MemoryMB); err != nil {
				break
			}
			instances++
			served := cand.Bounds.RUp
			if served > remaining {
				served = remaining
			}
			absorbed += served
			remaining -= cand.Bounds.RUp
		}
	}
	return absorbed, instances
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
	t := &Table{ID: "fig17a", Title: "Scheduling overhead (wall clock, 2000 servers)",
		Cols: []string{"totalMs", "perInstanceUs"}}
	fn := scheduler.Function{Name: "resnet", Model: model.MustGet("ResNet-50"), SLO: 200 * time.Millisecond}
	for _, n := range counts {
		plan := scheduler.BuildPlan(fn, scalePred, scheduler.Options{MaxInstancesPerCall: n})
		cl := cluster.New(cluster.Options{Servers: 2000, Shards: opts.Shards})
		start := time.Now()
		ds, _ := plan.Schedule(1e12, cl)
		elapsed := time.Since(start)
		placed := len(ds)
		if placed == 0 {
			t.AddRow(fmt.Sprintf("%d instances", n), "-", "-")
			continue
		}
		t.AddRow(fmt.Sprintf("%d instances", placed),
			fmt.Sprintf("%.1f", float64(elapsed)/float64(time.Millisecond)),
			fmt.Sprintf("%.0f", float64(elapsed)/float64(time.Microsecond)/float64(placed)))
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
	t := &Table{ID: "fig17b", Title: "Resource fragment ratio (large-scale packing)",
		Cols: []string{"fragment", "absorbedRPS", "instances"}}
	mk := func() (*cluster.Cluster, []scaleFunction) {
		rng := rand.New(rand.NewSource(opts.Seed))
		fns := makeFunctions(nFuncs, 150*time.Millisecond, rng)
		// A moderate operating point (~40%% of capacity): placement policy
		// shows up in the fragment ratio before the cluster saturates.
		for i := range fns {
			fns[i].load *= 4
		}
		return cluster.New(cluster.Options{Servers: servers, Shards: opts.Shards}), fns
	}
	ladder := []perf.Resources{{CPU: 2, GPU: 1}, {CPU: 4, GPU: 2}, {CPU: 8, GPU: 4}}
	batches := []int{1, 2, 4, 8, 16, 32}

	cl, fns := mk()
	abs, inst := packInfless(fns, cl, scheduler.Options{})
	t.AddRow("infless", pct(cl.FragmentationRatio()), fmt.Sprintf("%.0f", abs), fmt.Sprintf("%d", inst))

	cl, fns = mk()
	abs, inst = packUniform(fns, cl, ladder, batches, true)
	t.AddRow("batch+rs", pct(cl.FragmentationRatio()), fmt.Sprintf("%.0f", abs), fmt.Sprintf("%d", inst))

	cl, fns = mk()
	abs, inst = packUniform(fns, cl, ladder, batches, false)
	t.AddRow("batch", pct(cl.FragmentationRatio()), fmt.Sprintf("%.0f", abs), fmt.Sprintf("%d", inst))

	cl, fns = mk()
	abs, inst = packUniform(fns, cl, []perf.Resources{{CPU: 2, GPU: 1}}, []int{1}, false)
	t.AddRow("openfaas+", pct(cl.FragmentationRatio()), fmt.Sprintf("%.0f", abs), fmt.Sprintf("%d", inst))

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
	t := &Table{ID: "fig18a", Title: "Large-scale throughput per resource vs #functions",
		Cols: []string{"infless", "batch", "openfaas+", "vsBatch", "vsOFP"}}
	ladder := []perf.Resources{{CPU: 2, GPU: 1}, {CPU: 4, GPU: 2}, {CPU: 8, GPU: 4}}
	counts := []int{10, 20, 30, 40}
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
		perRes := func(pack func(*cluster.Cluster, []scaleFunction) float64) float64 {
			cl := cluster.New(cluster.Options{Servers: servers, Shards: opts.Shards})
			abs := pack(cl, mk())
			w := cl.TotalAllocated().Weighted()
			if w == 0 {
				return 0
			}
			return abs / w
		}
		vi := perRes(func(cl *cluster.Cluster, fns []scaleFunction) float64 {
			a, _ := packInfless(fns, cl, scheduler.Options{})
			return a
		})
		vb := perRes(func(cl *cluster.Cluster, fns []scaleFunction) float64 {
			a, _ := packUniform(fns, cl, ladder, []int{1, 2, 4, 8, 16, 32}, false)
			return a
		})
		vo := perRes(func(cl *cluster.Cluster, fns []scaleFunction) float64 {
			a, _ := packUniform(fns, cl, []perf.Resources{{CPU: 2, GPU: 1}}, []int{1}, false)
			return a
		})
		points[i] = [3]float64{vi, vb, vo}
	})
	for i, n := range counts {
		vi, vb, vo := points[i][0], points[i][1], points[i][2]
		t.AddRow(fmt.Sprintf("%d funcs", n), f2(vi), f2(vb), f2(vo),
			fmt.Sprintf("%.1fx", vi/vb), fmt.Sprintf("%.1fx", vi/vo))
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
	t := &Table{ID: "fig18b", Title: "Large-scale INFless throughput per resource vs SLO (20 functions)",
		Cols: []string{"thpt/res", "normalized"}}
	slos := []time.Duration{30, 50, 75, 100, 150, 300}
	vals := make([]float64, len(slos))
	opts.parallelFor(len(slos), func(i int) {
		rng := rand.New(rand.NewSource(opts.Seed))
		fns := makeFixedSLOFunctions(20, slos[i]*time.Millisecond, rng)
		for j := range fns {
			fns[j].load *= 4
		}
		cl := cluster.New(cluster.Options{Servers: servers, Shards: opts.Shards})
		abs, _ := packInfless(fns, cl, scheduler.Options{})
		w := cl.TotalAllocated().Weighted()
		if w > 0 {
			vals[i] = abs / w
		}
	})
	// Normalization against the first (nonzero) point happens after the
	// fan-out so it never depends on completion order.
	var first, last float64
	for i, sloMs := range slos {
		v := vals[i]
		if first == 0 {
			first = v
		}
		norm := 0.0
		if first != 0 {
			norm = v / first
		}
		t.AddRow(fmt.Sprintf("slo=%dms", sloMs), f2(v), f2(norm))
		last = norm
	}
	t.Note("paper: relaxing 150ms -> 300ms lifts normalized throughput from 0.7 to 1.0 (here: 1.00 -> %.2f)", last)
	return t
}
