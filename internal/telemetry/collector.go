// Package telemetry is the observability layer shared by both data
// planes. A Collector subscribes to the runtime.Observer event stream —
// from the discrete-event simulator or the wall-clock HTTP gateway,
// unchanged — and maintains, per function: a log-bucketed latency
// histogram (quantiles without storing samples), rolling-window
// arrival/served/dropped rates and SLO attainment, batch-size and
// queue-delay distributions, cold-start counts with a launch timeline,
// and cluster-wide beta-weighted resource-utilization series.
//
// Every number the system reports — Report quantiles, the gateway's
// Prometheus and JSON metrics, -trace dumps — is produced from this one
// collector, so the two planes can never drift apart in how they
// measure. The Observe hot path sits on every request event in both
// planes and is allocation-free after a function's first event; it costs
// one uncontended mutex and one map lookup, because events come from one
// engine's event loop and only snapshots come from elsewhere.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/perf"
)

// Options configure a Collector.
type Options struct {
	// Window is the rolling-window width for rate and SLO-attainment
	// figures (default 60s).
	Window time.Duration
	// ResourceSampleEvery, when non-zero, adds fixed-period points to the
	// beta-weighted resource-utilization time series (Figure 14). Points
	// at allocation changes and the resource-time integral are always
	// maintained.
	ResourceSampleEvery time.Duration
}

// coldTimelineCap bounds the retained launch timeline per function.
const coldTimelineCap = 512

// Collector implements runtime.Observer for either plane. On both it is
// fed by one sim.Engine's event loop, one event at a time (the gateway
// runs that loop under its lock, from whichever goroutine advances the
// plane), while snapshots are read from any goroutine (/system/metrics,
// an embedding caller). There is one writer, so there is one mutex: an
// observer method is lock, map lookup, update, unlock, and a snapshot
// holds the lock for the whole document. All methods are safe for
// concurrent use.
type Collector struct {
	opts   Options
	warmup atomic.Int64 // see SetWarmup

	// mu guards everything below.
	mu   sync.Mutex
	fns  map[string]*funcStats
	last time.Duration // latest plane time any event carried

	// Cluster-wide resource state.
	integ      metrics.ResourceIntegrator
	cur        perf.Resources
	nextSample time.Duration
	series     []ResourcePoint
}

// New creates a collector.
func New(opts Options) *Collector {
	if opts.Window <= 0 {
		opts.Window = time.Minute
	}
	return &Collector{opts: opts, fns: map[string]*funcStats{}}
}

// SetWarmup excludes requests served or dropped before plane time d from
// latency and violation statistics (the simulator's warmup semantics);
// arrival, batch, and launch counters always accumulate. sim.New calls it
// with the engine's Config.Warmup, so a collector handed to an engine
// cuts off where the engine does; call it before the plane's first event.
func (c *Collector) SetWarmup(d time.Duration) { c.warmup.Store(int64(d)) }

func (c *Collector) inWarmup(now time.Duration) bool { return int64(now) < c.warmup.Load() }

// funcStats is one function's accumulated state, guarded by
// Collector.mu.
type funcStats struct {
	// rec holds the served / dropped / violation / cold counts, the
	// latency sums and the latency histogram, checked against the SLO.
	rec     metrics.LatencyRecorder
	arrived uint64
	shed    uint64 // admission-control refusals; a subset of dropped
	queue   metrics.Histogram

	batches     uint64
	batchSum    uint64
	batchServed map[int]uint64

	launches     int
	coldLaunches int
	live         int
	timeline     []LaunchPoint

	// Startup breakdown of tiered cold launches (zero unless the plane
	// runs with multi-tier artifact storage).
	tierStarts     [artifact.NumTiers]uint64
	startupBoot    time.Duration
	startupPromote time.Duration
	startupLoad    [artifact.NumTiers]time.Duration

	win window
}

// Register pre-declares a function with its SLO; events for unknown
// functions auto-register with no SLO (no violation accounting).
func (c *Collector) Register(fn string, slo time.Duration) {
	c.mu.Lock()
	c.stats(fn).rec.SetSLO(slo)
	c.mu.Unlock()
}

// Recorder returns a copy of fn's latency recorder, for readers that
// need exact durations rather than the snapshot's millisecond floats;
// nil when fn was never observed.
func (c *Collector) Recorder(fn string) *metrics.LatencyRecorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs, ok := c.fns[fn]
	if !ok {
		return nil
	}
	return fs.rec.Clone()
}

// stats returns fn's state, creating it on fn's first event. The caller
// holds c.mu.
func (c *Collector) stats(fn string) *funcStats {
	fs, ok := c.fns[fn]
	if !ok {
		fs = &funcStats{
			batchServed: map[int]uint64{},
			win:         newWindow(c.opts.Window),
		}
		c.fns[fn] = fs
	}
	return fs
}

// lock locks the collector for one event at plane time now, noting the
// time, and returns fn's state; the caller updates it and unlocks c.mu.
func (c *Collector) lock(fn string, now time.Duration) *funcStats {
	c.mu.Lock()
	c.noteTime(now)
	return c.stats(fn)
}

// noteTime advances the latest observed plane time. The caller holds c.mu.
func (c *Collector) noteTime(now time.Duration) {
	if now > c.last {
		c.last = now
	}
}

// RequestArrived implements runtime.Observer.
func (c *Collector) RequestArrived(fn string, now time.Duration) {
	fs := c.lock(fn, now)
	fs.arrived++
	fs.win.bucket(now).arrived++
	c.mu.Unlock()
}

// RequestEnqueued implements runtime.Observer (no per-enqueue state is
// kept; queue delay is measured from the served sample's decomposition).
func (c *Collector) RequestEnqueued(string, int, time.Duration) {}

// BatchSubmitted implements runtime.Observer.
func (c *Collector) BatchSubmitted(fn string, _, size int, now time.Duration) {
	fs := c.lock(fn, now)
	fs.batches++
	fs.batchSum += uint64(size)
	fs.batchServed[size] += uint64(size)
	c.mu.Unlock()
}

// RequestServed implements runtime.Observer.
func (c *Collector) RequestServed(fn string, s metrics.Sample, now time.Duration) {
	fs := c.lock(fn, now)
	if !c.inWarmup(now) {
		late := fs.rec.Observe(s)
		fs.queue.Add(s.Queue)
		b := fs.win.bucket(now)
		b.served++
		if late {
			b.violations++
		}
	}
	c.mu.Unlock()
}

// RequestDropped implements runtime.Observer.
func (c *Collector) RequestDropped(fn string, now time.Duration) {
	fs := c.lock(fn, now)
	if !c.inWarmup(now) {
		fs.rec.Drop()
		fs.win.bucket(now).dropped++
	}
	c.mu.Unlock()
}

// RequestShed implements runtime.ShedObserver: admission-control
// refusals (the gateway's 429s). The plane fires RequestDropped for the
// same request, so shed counts a cause within dropped, not extra loss.
func (c *Collector) RequestShed(fn string, now time.Duration) {
	fs := c.lock(fn, now)
	if !c.inWarmup(now) {
		fs.shed++
	}
	c.mu.Unlock()
}

// InstanceLaunched implements runtime.Observer.
func (c *Collector) InstanceLaunched(fn string, _ int, cold bool, startDelay, now time.Duration) {
	fs := c.lock(fn, now)
	fs.launches++
	if cold {
		fs.coldLaunches++
	}
	fs.live++
	if len(fs.timeline) < coldTimelineCap {
		fs.timeline = append(fs.timeline, LaunchPoint{
			AtMs:         ms(now),
			Cold:         cold,
			StartDelayMs: ms(startDelay),
		})
	}
	c.mu.Unlock()
}

// InstanceStartup implements runtime.StartupObserver: it accumulates the
// startup-time decomposition (boot vs per-tier load vs promotion) of
// tiered cold launches.
func (c *Collector) InstanceStartup(fn string, _ int, bd artifact.Breakdown, now time.Duration) {
	fs := c.lock(fn, now)
	fs.startupBoot += bd.Boot
	fs.startupPromote += bd.Promote
	if bd.From < artifact.NumTiers {
		fs.tierStarts[bd.From]++
		fs.startupLoad[bd.From] += bd.Load
	}
	c.mu.Unlock()
}

// InstanceReclaimed implements runtime.Observer.
func (c *Collector) InstanceReclaimed(fn string, _ int, now time.Duration) {
	fs := c.lock(fn, now)
	if fs.live > 0 {
		fs.live--
	}
	c.mu.Unlock()
}

// AllocationChanged implements runtime.Observer: it advances the
// resource-time integral and the utilization series. Every change in
// allocation records a point; ResourceSampleEvery adds fixed-period
// boundary points on top, where boundaries before now carry the
// allocation that held since the previous change and a boundary exactly
// at now carries the new allocation.
func (c *Collector) AllocationChanged(alloc perf.Resources, now time.Duration) {
	every := c.opts.ResourceSampleEvery
	c.mu.Lock()
	c.noteTime(now)
	if every > 0 {
		for c.nextSample < now {
			c.emitSample()
			c.nextSample += every
		}
	}
	// A first event with a zero allocation only seeds the series when no
	// periodic boundary will record the same point anyway.
	changed := alloc != c.cur || (len(c.series) == 0 && every == 0)
	c.integ.Update(now, alloc)
	c.cur = alloc
	if changed {
		c.series = append(c.series, ResourcePoint{
			AtMs:     ms(now),
			CPUCores: alloc.CPU,
			GPUUnits: alloc.GPU,
			Weighted: alloc.Weighted(),
		})
	}
	if every > 0 {
		for c.nextSample <= now {
			c.emitSample()
			c.nextSample += every
		}
	}
	c.mu.Unlock()
}

func (c *Collector) emitSample() {
	c.series = append(c.series, ResourcePoint{
		AtMs:     ms(c.nextSample),
		CPUCores: c.cur.CPU,
		GPUUnits: c.cur.GPU,
		Weighted: c.cur.Weighted(),
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
