package main

// layers.go produces the per-layer metrics of the traced pass. Three
// sources, all outside the program under test: the span roll-up
// (span.go), the counts of the benchmark's runtime.Observer, and
// isolated timings of the layers' public functions on inputs of the
// workload's kind. A layer's metric is 0 on a workload that never
// enters that layer.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/simclock"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

// timeOp returns the cost of one call of f in nanoseconds: the best of
// five repetitions of the mean over n calls. setup, when not nil, runs
// before each repetition, untimed.
func timeOp(n int, setup func(), f func(i int)) float64 {
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		if d := float64(time.Since(t0)) / float64(n); rep == 0 || d < best {
			best = d
		}
	}
	return best
}

// sink keeps the timed calls' results live.
var sink float64

// spanTail is the tail (p99, or what the count supports) of the
// durations of the spans of one name, in ns.
func spanTail(spans []span, name string) float64 {
	var durs []int64
	for _, s := range spans {
		if s.name == name {
			durs = append(durs, s.end-s.start)
		}
	}
	slices.Sort(durs)
	t, _ := tailQuantile(durs)
	return float64(t)
}

// sharedLayerTimings times the layers both planes run on every request:
// the function registry, the rate estimators, the batch-timeout rule,
// the telemetry collector and the one latency histogram.
func sharedLayerTimings(m map[string]float64) error {
	names := make([]string, 64)
	reg := core.NewRegistry()
	for i := range names {
		names[i] = fmt.Sprintf("f%02d", i)
		if err := reg.Register(core.RegistryEntry{Name: names[i], ModelName: "MNIST", SLO: 200 * time.Millisecond}); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
	}
	m["core.registry_lookup_ns"] = timeOp(1_000_000, nil, func(i int) {
		if _, ok := reg.Lookup(names[i&63]); ok {
			sink++
		}
	})
	var regErr error
	extra := core.RegistryEntry{Name: "extra", ModelName: "MNIST", SLO: 200 * time.Millisecond}
	m["core.registry_register_us"] = timeOp(2_000, nil, func(int) {
		if err := reg.Register(extra); err != nil {
			regErr = err
		}
		reg.Delete("extra")
	}) / 1e3
	if regErr != nil {
		return fmt.Errorf("registry: %w", regErr)
	}

	rates := runtime.NewRateStripes(10 * time.Second)
	m["runtime.rate_observe_ns"] = timeOp(1_000_000, nil, func(i int) {
		rates.Observe(names[i&63], time.Duration(i)*50*time.Microsecond)
	})
	m["runtime.rate_demand_ns"] = timeOp(200_000, nil, func(i int) {
		sink += rates.Demand(names[i&63], 250*time.Second)
	})
	m["runtime.batch_timeout_ns"] = timeOp(5_000_000, nil, func(i int) {
		sink += float64(runtime.BatchTimeout(200*time.Millisecond, time.Duration(i&1023)*time.Microsecond))
	})

	col := telemetry.New(telemetry.Options{})
	for _, n := range names {
		col.Register(n, 200*time.Millisecond)
	}
	m["telemetry.observe_ns"] = timeOp(1_000_000, nil, func(i int) {
		col.RequestServed(names[i&63], metrics.Sample{Queue: time.Duration(i&4095) * time.Microsecond, Exec: 3 * time.Millisecond},
			time.Duration(i)*time.Microsecond)
	})
	m["telemetry.snapshot_us"] = timeOp(50, nil, func(int) {
		sink += col.SnapshotAt(5 * time.Second).AtMs
	}) / 1e3

	var h metrics.Histogram
	m["metrics.histogram_add_ns"] = timeOp(5_000_000, nil, func(i int) {
		h.Add(time.Duration(i&65535) * time.Microsecond)
	})
	m["metrics.quantile_us"] = timeOp(20_000, nil, func(int) {
		sink += float64(h.Quantile(0.99))
	}) / 1e3
	return nil
}

// ---- gw_dispatch and gw_http ----

// noopInvoke answers like the gateway's invoke path — same status, same
// header, a body of the same shape — without doing any of its work: what
// is left is the harness and, over the wire, net/http.
func noopInvoke(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = []string{"application/json"}
	w.WriteHeader(http.StatusOK)
	name := r.URL.Path[len("/function/"):]
	_, _ = w.Write([]byte(`{"function":"` + name + `","latencyMs":3.21,"batchSize":1,"coldStart":false,"instance":1}` + "\n"))
}

func (g *gatewayWorkload) layers(tr *tracer, w wallClock) (map[string]float64, error) {
	m := map[string]float64{}
	st := selfTimes(tr.spans)
	m["gateway.serve_ns"] = st["gateway.ServeHTTP"].mean()
	m["gateway.serve_p99_us"] = spanTail(tr.spans, "gateway.ServeHTTP") / 1e3
	m["gateway.deploy_idle_us"] = st["gateway.deploy"].mean() / 1e3

	o := g.obs
	arrived := float64(o.arrived.Load())
	m["gateway.observer_events_per_op"] = float64(o.events.Load()) / arrived
	m["gateway.batch_mean"] = float64(o.batched.Load()) / float64(o.batches.Load())
	m["gateway.shed_share"] = float64(o.shed.Load()) / arrived
	m["gateway.failed_share"] = float64(o.dropped.Load()) / arrived
	if live := o.launched.Load() - o.reclaimed.Load(); live != gwFunctions {
		return nil, fmt.Errorf("observer saw %d live instances for %d functions", live, gwFunctions)
	}

	if err := g.churnFunctions(m); err != nil {
		return nil, err
	}

	// The floor: the same loop against a handler that does nothing.
	noop := target{handler: http.HandlerFunc(noopInvoke)}
	n := 200_000
	if g.overHTTP {
		ts := httptest.NewServer(noop.handler)
		defer ts.Close()
		noop = target{url: ts.URL}
		n = 20_000
	}
	if _, err := g.drive(nil, noop, n/4); err != nil { // connections, pools
		return nil, fmt.Errorf("no-op warm-up: %w", err)
	}
	before := readCounters()
	seg, err := g.drive(nil, noop, n)
	after := readCounters()
	if err != nil {
		return nil, fmt.Errorf("no-op loop: %w", err)
	}
	if seg.failed > 0 {
		return nil, fmt.Errorf("no-op loop: %d replies failed their check", seg.failed)
	}
	slices.Sort(seg.latNs)
	if g.overHTTP {
		// A round trip's self time is what is left of it outside the
		// gateway's handler: net/http on both sides, the kernel, the client.
		rt := st["http.roundtrip"]
		m["http.noop_p50_us"] = float64(quantileSorted(seg.latNs, 0.5)) / 1e3
		m["http.noop_cpu_us_per_op"] = float64(after.cpu-before.cpu) / 1e3 / float64(n)
		m["http.gateway_share"] = 1 - float64(rt.self)/float64(rt.total)
		m["http.stack_self_us"] = float64(rt.self) / float64(rt.count) / 1e3
		m["http.latency_p99_us"] = spanTail(tr.spans, "http.roundtrip") / 1e3
	} else {
		m["loadgen.inproc_overhead_ns"] = float64(after.wall.Sub(before.wall)) / float64(n)
	}
	return m, sharedLayerTimings(m)
}

// churnFunctions times REST deploy and delete of an extra function while
// invocations of the others are in flight: the copy-on-write write
// beside the lock-free reads.
func (g *gatewayWorkload) churnFunctions(m map[string]float64) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seg, err := g.drive(nil, g.self(), 512)
			if err == nil && seg.failed > 0 {
				err = fmt.Errorf("%d invocations failed beside a deploy", seg.failed)
			}
			if err != nil {
				loadErr = err
				return
			}
		}
	}()
	var deploys, deletes []float64
	var err error
	for i := 0; i < 25 && err == nil; i++ {
		t0 := time.Now()
		err = g.deploy("extra", "200ms")
		t1 := time.Now()
		if err == nil {
			err = g.undeploy("extra")
		}
		deploys = append(deploys, float64(t1.Sub(t0))/1e3)
		deletes = append(deletes, float64(time.Since(t1))/1e3)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if loadErr != nil {
		return loadErr
	}
	m["gateway.deploy_us"] = median(deploys)
	m["gateway.delete_us"] = median(deletes)
	return nil
}

// ---- sim_fleet ----

func (s *simFleetWorkload) layers(tr *tracer, w wallClock) (map[string]float64, error) {
	o := s.obs
	m := map[string]float64{}
	served, arrived := float64(o.servedAll), float64(o.arrivedAll)
	slices.Sort(o.queueNs)
	m["sim.queue_ms_p50"] = float64(quantileSorted(o.queueNs, 0.50)) / 1e6
	m["sim.queue_ms_p99"] = float64(quantileSorted(o.queueNs, 0.99)) / 1e6
	m["sim.cold_ms_mean"] = float64(o.coldNs) / 1e6 / served
	m["sim.exec_ms_mean"] = float64(o.execNs) / 1e6 / served
	m["sim.batch_mean"] = float64(o.batched) / float64(o.batches)
	m["sim.cold_start_share"] = float64(o.coldServed) / served
	m["sim.dropped_share"] = float64(o.droppedAll) / arrived
	m["sim.launches"] = float64(o.launches)
	m["sim.reclaims"] = float64(o.reclaims)
	m["sim.resource_seconds"] = o.resSeconds
	if o.tierStarts > 0 {
		m["artifact.dram_start_share"] = float64(o.dramStarts) / float64(o.tierStarts)
	}
	m["sim.ns_per_request"] = 1e9 / w.throughput
	m["sim.events_per_s"] = float64(o.events) / s.tracedWall.Seconds()
	m["sim.mallocs_per_request"] = w.mallocs
	st := selfTimes(tr.spans)
	m["profiler.db_build_ms"] = st["profiler.NewDB"].mean() / 1e6
	m["scheduler.build_plan_us"] = st["scheduler.BuildPlan"].mean() / 1e3

	clk := simclock.New()
	fire := func() { sink++ }
	m["simclock.schedule_fire_ns"] = timeOp(1_000_000, clk.Reset, func(i int) {
		// A standing heap of ~1k events, as in a busy run.
		clk.ScheduleAfter(time.Duration(1+i&1023)*time.Microsecond, fire)
		if i >= 1024 {
			clk.Step()
		}
	})
	m["simclock.cancel_ns"] = timeOp(1_000_000, clk.Reset, func(i int) {
		clk.ScheduleAfter(time.Duration(1+i&1023)*time.Microsecond, fire).Cancel()
	})
	q := batching.NewQueue[*int](8, 50*time.Millisecond)
	item := new(int)
	m["batching.queue_add_drain_ns"] = timeOp(2_000_000, nil, func(i int) {
		now := time.Duration(i) * time.Microsecond
		if _, full := q.Add(item, now); full {
			q.Drain(now)
		}
	})
	bounds := make([]batching.Bounds, 8)
	for i := range bounds {
		bounds[i] = batching.Bounds{RLow: 40 + 10*float64(i), RUp: 200 + 25*float64(i)}
	}
	m["batching.allocate_rates_ns"] = timeOp(500_000, nil, func(i int) {
		sink += batching.AllocateRates(bounds, 600+float64(i&511), batching.DefaultAlpha).ResidualRPS
	})
	var stream *workload.Stream
	m["workload.stream_next_ns"] = timeOp(500_000, func() {
		stream = workload.NewStream(s.cells[0][0].Trace, simDuration, rand.New(rand.NewSource(1)))
	}, func(int) {
		if at, ok := stream.Next(); ok {
			sink += float64(at)
		}
	})
	resnet := model.MustGet("ResNet-50")
	execOpt := model.ExecOptions{Contention: 0.35, NoiseSD: 0.025, Rng: rand.New(rand.NewSource(1))}
	m["model.exec_time_ns"] = timeOp(200_000, nil, func(i int) {
		sink += float64(resnet.ExecTime(1+i&7, perf.Resources{CPU: 2, GPU: 2}, execOpt))
	})
	lsth := coldstart.NewLSTH(coldstart.LSTHOptions{})
	for i := 0; i < 2000; i++ {
		lsth.RecordIdle(time.Duration(1+i%90)*time.Second, time.Duration(i)*30*time.Second)
	}
	m["coldstart.lsth_decide_ns"] = timeOp(50_000, nil, func(int) {
		sink += float64(lsth.Decide(2000 * 30 * time.Second).KeepAlive)
	})
	storage := artifact.DefaultConfig()
	cache := artifact.NewCache(storage.CacheMB)
	m["artifact.cache_promote_ns"] = timeOp(500_000, nil, func(i int) {
		name := simFleet[i%len(simFleet)].name
		cache.Promote(name, 200, artifact.TierDRAM)
		cache.Demote(name, artifact.TierSSD)
	})
	m["artifact.startup_ns"] = timeOp(2_000_000, nil, func(i int) {
		sink += float64(storage.Hierarchy.Startup(200+i&255, artifact.Tier(i&3)).Total())
	})
	return m, sharedLayerTimings(m)
}

// ---- sched_scale ----

func (s *schedScaleWorkload) layers(tr *tracer, w wallClock) (map[string]float64, error) {
	m := map[string]float64{}
	st := selfTimes(tr.spans)
	m["scheduler.schedule_one_us"] = st["scheduler.Schedule"].mean() / 1e3
	m["scheduler.schedule_one_p99_us"] = spanTail(tr.spans, "scheduler.Schedule") / 1e3
	m["cluster.release_ns"] = st["cluster.Release"].mean()
	m["scheduler.bulk_placements_per_s"] = float64(s.bulkPlaced) / s.bulkWall.Seconds()
	m["scheduler.mallocs_per_placement"] = w.mallocs
	m["scheduler.bytes_per_placement"] = w.allocBytes
	m["scheduler.build_plan_us"] = st["scheduler.BuildPlan"].mean() / 2 / 1e3 // the span covers two BuildPlan calls
	m["profiler.db_build_ms"] = st["profiler.NewDB"].mean() / 1e6

	resnet := model.MustGet("ResNet-50")
	grid := []perf.Resources{{CPU: 1}, {CPU: 2, GPU: 1}, {CPU: 4, GPU: 2}, {CPU: 8}, {GPU: 4}, {CPU: 2, GPU: 6}, {CPU: 16}, {CPU: 1, GPU: 1}}
	for _, res := range grid {
		s.pred.Predict(resnet, 8, res)
	}
	m["scheduler.predict_cached_ns"] = timeOp(2_000_000, nil, func(i int) {
		sink += float64(s.pred.Predict(resnet, 8, grid[i&7]))
	})
	raw := profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions()))
	m["profiler.predict_ns"] = timeOp(20_000, nil, func(i int) {
		sink += float64(raw.Predict(resnet, 8, grid[i&7]))
	})

	// Placement queries against the workload's own cluster, at its steady
	// occupancy.
	query := func(fit func(perf.Resources, int) (int, float64, bool)) func(int) {
		return func(i int) {
			if id, _, ok := fit(grid[i&7], 400); ok {
				sink += float64(id)
			}
		}
	}
	m["cluster.bestfit_ns"] = timeOp(500_000, nil, query(s.cl.BestFit))
	for _, workers := range []int{1, 2} {
		pool := s.cl.NewFitPool(workers)
		m[fmt.Sprintf("cluster.fitpool_bestfit_ns.w%d", workers)] = timeOp(100_000, nil, query(pool.BestFit))
		pool.Close()
	}
	var allocErr error
	m["cluster.alloc_release_ns"] = timeOp(500_000, nil, func(i int) {
		// Take a live instance off its server and put it back: at steady
		// occupancy the active servers are full, so only this always fits.
		in := s.live[(i*7919)%len(s.live)]
		s.cl.Release(in.server, in.res, in.memMB)
		if err := s.cl.Allocate(in.server, in.res, in.memMB); err != nil {
			allocErr = err
		}
	})
	if allocErr != nil {
		return nil, fmt.Errorf("allocate: %w", allocErr)
	}
	return m, s.fanOut(m)
}

// fanOut replays one seeded run of pairs on fresh, bulk-filled clusters
// at FitWorkers 1 and 2. The decisions must be identical; the ratio of
// the two throughputs is one point of the fan-out curve.
func (s *schedScaleWorkload) fanOut(m map[string]float64) error {
	var thr [2]float64
	var digests [2]uint64
	for k, workers := range []int{1, 2} {
		cl, plans, live, err := s.fill(nil, -1, workers)
		if err != nil {
			return fmt.Errorf("FitWorkers %d: %w", workers, err)
		}
		t0 := time.Now()
		out := s.churn(nil, -1, cl, plans, &live, rand.New(rand.NewSource(s.seed)), schedReplay)
		thr[k] = float64(out.placed) / time.Since(t0).Seconds()
		digests[k] = out.digest
		if err := audit(cl, live, s.booked); err != nil {
			return fmt.Errorf("FitWorkers %d: %w", workers, err)
		}
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("decisions differ between FitWorkers 1 (%016x) and 2 (%016x)", digests[0], digests[1])
	}
	m["scheduler.fitworkers2_ratio"] = thr[1] / thr[0]
	return nil
}
