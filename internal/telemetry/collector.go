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
// measure. The hooks sit on every request event in both planes and are
// allocation-free after a function's first events: the engine books them
// on the function's Ledger, the handle Register returned, with no lookup
// and no lock, because events come from one engine's event loop on one
// goroutine at a time. Only snapshots come from elsewhere, and they take
// the lock that loop runs under (Options.Guard).
package telemetry

import (
	"sync"
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
	// Guard is the lock the plane's writer holds while it feeds the
	// collector (the gateway's Server.mu). Snapshot, SnapshotAt and
	// Recorder take it, so a reader on another goroutine sees the state
	// between two events. Nil when every read runs on the writer's
	// goroutine, as in the simulator.
	Guard sync.Locker
}

// coldTimelineCap bounds the retained launch timeline per function.
const coldTimelineCap = 512

// Collector is the ledger of one plane: a Ledger per function plus the
// cluster-wide resource state. It has one writer, the plane's event loop
// (sim.Engine's, which the gateway runs with its lock held), so writers
// take no lock: the engine books each function's events on the Ledger
// Register returned, and AllocationChanged on the collector. Readers on
// other goroutines — /system/metrics, an embedding caller — go through
// Snapshot, SnapshotAt and Recorder, which take Options.Guard, the lock
// the writer holds; a collector without one is read on the writer's
// goroutine, before or after the plane runs.
//
// The name-keyed observer methods (RequestArrived, RequestServed, ...)
// are a second shape of the same hooks, one map lookup plus the Ledger
// call, for callers that hold a name rather than a handle: external
// observers and the benchmark harness. They implement runtime.Observer.
type Collector struct {
	opts   Options
	warmup time.Duration // see SetWarmup

	fns  map[string]*Ledger
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
	if opts.Guard == nil {
		opts.Guard = noGuard{}
	}
	return &Collector{opts: opts, fns: map[string]*Ledger{}}
}

// noGuard is the guard of a collector whose readers run on its writer's
// goroutine.
type noGuard struct{}

func (noGuard) Lock()   {}
func (noGuard) Unlock() {}

// SetWarmup excludes requests served or dropped before plane time d from
// latency and violation statistics (the simulator's warmup semantics);
// arrival, batch, and launch counters always accumulate. sim.New calls it
// with the engine's Config.Warmup, so a collector handed to an engine
// cuts off where the engine does; call it before the plane's first event.
func (c *Collector) SetWarmup(d time.Duration) { c.warmup = d }

// Ledger is one function's accumulated state, and the handle Register
// returns: its methods are the function's observer hooks without the
// name, called by the plane's one writer.
type Ledger struct {
	c *Collector
	// rec holds the served / dropped / violation / cold counts, the
	// latency sums and the latency histogram, checked against the SLO.
	rec     metrics.LatencyRecorder
	arrived uint64
	shed    uint64 // admission-control refusals; a subset of dropped
	queue   metrics.Histogram

	batches     uint64
	batchSum    uint64
	batchServed []uint64 // requests served in batches of each size, indexed by size

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

// Register pre-declares a function with its SLO and returns its ledger,
// the same one on every call for a name; events for unknown functions
// auto-register with no SLO (no violation accounting).
func (c *Collector) Register(fn string, slo time.Duration) *Ledger {
	l := c.stats(fn)
	l.rec.SetSLO(slo)
	return l
}

// Recorder returns a copy of fn's latency recorder, for readers that
// need exact durations rather than the snapshot's millisecond floats;
// nil when fn was never observed.
func (c *Collector) Recorder(fn string) *metrics.LatencyRecorder {
	c.opts.Guard.Lock()
	defer c.opts.Guard.Unlock()
	l, ok := c.fns[fn]
	if !ok {
		return nil
	}
	return l.rec.Clone()
}

// stats returns fn's ledger, creating it on fn's first event.
func (c *Collector) stats(fn string) *Ledger {
	l, ok := c.fns[fn]
	if !ok {
		l = &Ledger{c: c, win: newWindow(c.opts.Window)}
		c.fns[fn] = l
	}
	return l
}

// noteTime advances the latest observed plane time.
func (c *Collector) noteTime(now time.Duration) {
	if now > c.last {
		c.last = now
	}
}

func (c *Collector) inWarmup(now time.Duration) bool { return now < c.warmup }

// RequestArrived books an arrival at the function's front door.
func (l *Ledger) RequestArrived(now time.Duration) {
	l.c.noteTime(now)
	l.arrived++
	l.win.bucket(now).arrived++
}

// BatchSubmitted books a drained batch of size requests.
func (l *Ledger) BatchSubmitted(size int, now time.Duration) {
	l.c.noteTime(now)
	l.batches++
	l.batchSum += uint64(size)
	for size >= len(l.batchServed) {
		// First sight of a size: a timeout drain may hold any size up to
		// the instance's batch.
		l.batchServed = append(l.batchServed, 0)
	}
	l.batchServed[size] += uint64(size)
}

// RequestServed books one answered request with its latency
// decomposition.
func (l *Ledger) RequestServed(s metrics.Sample, now time.Duration) {
	l.c.noteTime(now)
	if l.c.inWarmup(now) {
		return
	}
	late := l.rec.Observe(s)
	l.queue.Add(s.Queue)
	b := l.win.bucket(now)
	b.served++
	if late {
		b.violations++
	}
}

// RequestDropped books a request rejected, expired or lost.
func (l *Ledger) RequestDropped(now time.Duration) {
	l.c.noteTime(now)
	if l.c.inWarmup(now) {
		return
	}
	l.rec.Drop()
	l.win.bucket(now).dropped++
}

// RequestShed books an admission-control refusal (a gateway 429). The
// plane books RequestDropped for the same request, so shed counts a cause
// within dropped, not extra loss.
func (l *Ledger) RequestShed(now time.Duration) {
	l.c.noteTime(now)
	if !l.c.inWarmup(now) {
		l.shed++
	}
}

// InstanceLaunched books an instance start.
func (l *Ledger) InstanceLaunched(cold bool, startDelay, now time.Duration) {
	l.c.noteTime(now)
	l.launches++
	if cold {
		l.coldLaunches++
	}
	l.live++
	if len(l.timeline) < coldTimelineCap {
		l.timeline = append(l.timeline, LaunchPoint{
			AtMs:         ms(now),
			Cold:         cold,
			StartDelayMs: ms(startDelay),
		})
	}
}

// InstanceStartup accumulates the startup-time decomposition (boot vs
// per-tier load vs promotion) of a tiered cold launch.
func (l *Ledger) InstanceStartup(bd artifact.Breakdown, now time.Duration) {
	l.c.noteTime(now)
	l.startupBoot += bd.Boot
	l.startupPromote += bd.Promote
	if bd.From < artifact.NumTiers {
		l.tierStarts[bd.From]++
		l.startupLoad[bd.From] += bd.Load
	}
}

// InstanceReclaimed books an instance's release.
func (l *Ledger) InstanceReclaimed(now time.Duration) {
	l.c.noteTime(now)
	if l.live > 0 {
		l.live--
	}
}

// RequestArrived implements runtime.Observer.
func (c *Collector) RequestArrived(fn string, now time.Duration) { c.stats(fn).RequestArrived(now) }

// RequestEnqueued implements runtime.Observer (no per-enqueue state is
// kept; queue delay is measured from the served sample's decomposition).
func (c *Collector) RequestEnqueued(string, int, time.Duration) {}

// BatchSubmitted implements runtime.Observer.
func (c *Collector) BatchSubmitted(fn string, _, size int, now time.Duration) {
	c.stats(fn).BatchSubmitted(size, now)
}

// RequestServed implements runtime.Observer.
func (c *Collector) RequestServed(fn string, s metrics.Sample, now time.Duration) {
	c.stats(fn).RequestServed(s, now)
}

// RequestDropped implements runtime.Observer.
func (c *Collector) RequestDropped(fn string, now time.Duration) { c.stats(fn).RequestDropped(now) }

// RequestShed implements runtime.ShedObserver.
func (c *Collector) RequestShed(fn string, now time.Duration) { c.stats(fn).RequestShed(now) }

// InstanceLaunched implements runtime.Observer.
func (c *Collector) InstanceLaunched(fn string, _ int, cold bool, startDelay, now time.Duration) {
	c.stats(fn).InstanceLaunched(cold, startDelay, now)
}

// InstanceStartup implements runtime.StartupObserver.
func (c *Collector) InstanceStartup(fn string, _ int, bd artifact.Breakdown, now time.Duration) {
	c.stats(fn).InstanceStartup(bd, now)
}

// InstanceReclaimed implements runtime.Observer.
func (c *Collector) InstanceReclaimed(fn string, _ int, now time.Duration) {
	c.stats(fn).InstanceReclaimed(now)
}

// AllocationChanged implements runtime.Observer: it advances the
// resource-time integral and the utilization series. Every change in
// allocation records a point; ResourceSampleEvery adds fixed-period
// boundary points on top, where boundaries before now carry the
// allocation that held since the previous change and a boundary exactly
// at now carries the new allocation.
func (c *Collector) AllocationChanged(alloc perf.Resources, now time.Duration) {
	every := c.opts.ResourceSampleEvery
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
