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
// planes and is allocation-free after a function's first event.
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
// plane), while snapshots are read from any goroutine — /system/metrics,
// an embedding caller, or a second plane sharing the collector — so all
// methods are safe for concurrent use.
type Collector struct {
	opts   Options
	warmup atomic.Int64 // see SetWarmup

	mu  sync.RWMutex
	fns map[string]*funcStats

	// lastNs is the latest plane time observed (atomic max).
	lastNs atomic.Int64

	// rmu guards cluster-wide resource state.
	rmu        sync.Mutex
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

// funcStats is one function's accumulated state, guarded by its own
// mutex so functions never contend with each other.
type funcStats struct {
	mu sync.Mutex

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
	fs := c.stats(fn)
	fs.mu.Lock()
	fs.rec.SetSLO(slo)
	fs.mu.Unlock()
}

// Recorder returns a copy of fn's latency recorder, for readers that
// need exact durations rather than the snapshot's millisecond floats;
// nil when fn was never observed.
func (c *Collector) Recorder(fn string) *metrics.LatencyRecorder {
	c.mu.RLock()
	fs, ok := c.fns[fn]
	c.mu.RUnlock()
	if !ok {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.rec.Clone()
}

func (c *Collector) stats(fn string) *funcStats {
	c.mu.RLock()
	fs, ok := c.fns[fn]
	c.mu.RUnlock()
	if ok {
		return fs
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if fs, ok = c.fns[fn]; ok {
		return fs
	}
	fs = &funcStats{
		batchServed: map[int]uint64{},
		win:         newWindow(c.opts.Window),
	}
	c.fns[fn] = fs
	return fs
}

func (c *Collector) noteTime(now time.Duration) {
	for {
		old := c.lastNs.Load()
		if int64(now) <= old || c.lastNs.CompareAndSwap(old, int64(now)) {
			return
		}
	}
}

// lastTime returns the latest plane time any event carried.
func (c *Collector) lastTime() time.Duration { return time.Duration(c.lastNs.Load()) }

// RequestArrived implements runtime.Observer.
func (c *Collector) RequestArrived(fn string, now time.Duration) {
	c.noteTime(now)
	fs := c.stats(fn)
	fs.mu.Lock()
	fs.arrived++
	fs.win.bucket(now).arrived++
	fs.mu.Unlock()
}

// RequestEnqueued implements runtime.Observer (no per-enqueue state is
// kept; queue delay is measured from the served sample's decomposition).
func (c *Collector) RequestEnqueued(string, int, time.Duration) {}

// BatchSubmitted implements runtime.Observer.
func (c *Collector) BatchSubmitted(fn string, _, size int, now time.Duration) {
	c.noteTime(now)
	fs := c.stats(fn)
	fs.mu.Lock()
	fs.batches++
	fs.batchSum += uint64(size)
	fs.batchServed[size] += uint64(size)
	fs.mu.Unlock()
}

// RequestServed implements runtime.Observer.
func (c *Collector) RequestServed(fn string, s metrics.Sample, now time.Duration) {
	c.noteTime(now)
	if c.inWarmup(now) {
		return
	}
	fs := c.stats(fn)
	fs.mu.Lock()
	late := fs.rec.Observe(s)
	fs.queue.Add(s.Queue)
	b := fs.win.bucket(now)
	b.served++
	if late {
		b.violations++
	}
	fs.mu.Unlock()
}

// RequestDropped implements runtime.Observer.
func (c *Collector) RequestDropped(fn string, now time.Duration) {
	c.noteTime(now)
	if c.inWarmup(now) {
		return
	}
	fs := c.stats(fn)
	fs.mu.Lock()
	fs.rec.Drop()
	fs.win.bucket(now).dropped++
	fs.mu.Unlock()
}

// RequestShed implements runtime.ShedObserver: admission-control
// refusals (the gateway's 429s). The plane fires RequestDropped for the
// same request, so shed counts a cause within dropped, not extra loss.
func (c *Collector) RequestShed(fn string, now time.Duration) {
	c.noteTime(now)
	if c.inWarmup(now) {
		return
	}
	fs := c.stats(fn)
	fs.mu.Lock()
	fs.shed++
	fs.mu.Unlock()
}

// InstanceLaunched implements runtime.Observer.
func (c *Collector) InstanceLaunched(fn string, _ int, cold bool, startDelay, now time.Duration) {
	c.noteTime(now)
	fs := c.stats(fn)
	fs.mu.Lock()
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
	fs.mu.Unlock()
}

// InstanceStartup implements runtime.StartupObserver: it accumulates the
// startup-time decomposition (boot vs per-tier load vs promotion) of
// tiered cold launches.
func (c *Collector) InstanceStartup(fn string, _ int, bd artifact.Breakdown, now time.Duration) {
	c.noteTime(now)
	fs := c.stats(fn)
	fs.mu.Lock()
	fs.startupBoot += bd.Boot
	fs.startupPromote += bd.Promote
	if bd.From < artifact.NumTiers {
		fs.tierStarts[bd.From]++
		fs.startupLoad[bd.From] += bd.Load
	}
	fs.mu.Unlock()
}

// InstanceReclaimed implements runtime.Observer.
func (c *Collector) InstanceReclaimed(fn string, _ int, now time.Duration) {
	c.noteTime(now)
	fs := c.stats(fn)
	fs.mu.Lock()
	if fs.live > 0 {
		fs.live--
	}
	fs.mu.Unlock()
}

// AllocationChanged implements runtime.Observer: it advances the
// resource-time integral and the utilization series. Every change in
// allocation records a point; ResourceSampleEvery adds fixed-period
// boundary points on top, where boundaries before now carry the
// allocation that held since the previous change and a boundary exactly
// at now carries the new allocation.
func (c *Collector) AllocationChanged(alloc perf.Resources, now time.Duration) {
	c.noteTime(now)
	every := c.opts.ResourceSampleEvery
	c.rmu.Lock()
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
	c.rmu.Unlock()
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
