package telemetry

// snapshot.go is the read side of the collector: an immutable, versioned,
// JSON-marshalable view. Field names are a stable contract — the gateway
// serves this document from GET /system/metrics, Report is built from
// it, and tests round-trip it — so changes must bump SchemaVersion.

import (
	"sort"
	"time"

	"github.com/tanklab/infless/internal/artifact"
)

// SchemaVersion identifies the snapshot document layout. Version 2
// added the optional per-function "startup" breakdown (tiered storage);
// version 3 added the optional per-function "shed" counter
// (admission-control refusals, a subset of dropped).
const SchemaVersion = 3

// Snapshot is one consistent view of everything the collector knows.
type Snapshot struct {
	SchemaVersion int                `json:"schemaVersion"`
	AtMs          float64            `json:"atMs"` // plane time of the snapshot
	WindowSeconds float64            `json:"windowSeconds"`
	Functions     []FunctionSnapshot `json:"functions"`
	Resources     ResourceSnapshot   `json:"resources"`
}

// FunctionSnapshot is one function's accumulated statistics.
type FunctionSnapshot struct {
	Name  string  `json:"name"`
	SLOMs float64 `json:"sloMs"`

	Arrived uint64 `json:"arrived"`
	Served  uint64 `json:"served"`
	Dropped uint64 `json:"dropped"`
	// Shed counts admission-control refusals (the gateway's 429s). Shed
	// requests also count in Dropped; planes without admission control
	// never emit the field.
	Shed       uint64 `json:"shed,omitempty"`
	Violations uint64 `json:"violations"`
	ColdServed uint64 `json:"coldServed"`

	SLOViolationRate float64 `json:"sloViolationRate"`
	ColdStartRate    float64 `json:"coldStartRate"`

	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`

	MeanColdMs  float64 `json:"meanColdMs"`
	MeanQueueMs float64 `json:"meanQueueMs"`
	MeanExecMs  float64 `json:"meanExecMs"`
	QueueP50Ms  float64 `json:"queueP50Ms"`
	QueueP99Ms  float64 `json:"queueP99Ms"`

	Batches     uint64         `json:"batches"`
	MeanBatch   float64        `json:"meanBatch"`
	BatchServed map[int]uint64 `json:"batchServed"` // drained size -> requests

	Launches      int           `json:"launches"`
	ColdLaunches  int           `json:"coldLaunches"`
	LiveInstances int           `json:"liveInstances"`
	ColdTimeline  []LaunchPoint `json:"coldTimeline,omitempty"`

	// Startup decomposes tiered cold-launch delay (absent unless the
	// plane runs with multi-tier artifact storage).
	Startup *StartupSnapshot `json:"startup,omitempty"`

	Window WindowSnapshot `json:"window"`

	// LatencyBuckets is the cumulative latency histogram backing the
	// Prometheus exposition; the JSON document carries quantiles instead.
	LatencyBuckets []HistBucket `json:"-"`
	LatencySumMs   float64      `json:"-"`
}

// LaunchPoint is one instance launch on the warm/cold timeline
// (Figure 16's cold-start timeline).
type LaunchPoint struct {
	AtMs         float64 `json:"atMs"`
	Cold         bool    `json:"cold"`
	StartDelayMs float64 `json:"startDelayMs"`
}

// StartupSnapshot decomposes a function's cumulative cold-launch delay
// on a tiered plane: container boot, checkpoint load by source tier,
// and cache promotion, plus the launch count by source tier.
type StartupSnapshot struct {
	TierStarts map[string]uint64  `json:"tierStarts"`
	BootMs     float64            `json:"bootMs"`
	PromoteMs  float64            `json:"promoteMs"`
	LoadMs     map[string]float64 `json:"loadMs"`
}

// WindowSnapshot is the rolling-window view of one function.
type WindowSnapshot struct {
	Seconds       float64 `json:"seconds"` // window width actually covered
	ArrivalRate   float64 `json:"arrivalRate"`
	ServedRate    float64 `json:"servedRate"`
	DropRate      float64 `json:"dropRate"`
	SLOAttainment float64 `json:"sloAttainment"`
}

// ResourceSnapshot is the cluster-wide resource view.
type ResourceSnapshot struct {
	CPUCores        int             `json:"cpuCores"` // current allocation
	GPUUnits        int             `json:"gpuUnits"`
	CPUCoreSeconds  float64         `json:"cpuCoreSeconds"` // integrals to AtMs
	GPUUnitSeconds  float64         `json:"gpuUnitSeconds"`
	WeightedSeconds float64         `json:"weightedSeconds"`
	Series          []ResourcePoint `json:"series,omitempty"`
}

// ResourcePoint is one sample of the utilization time series.
type ResourcePoint struct {
	AtMs     float64 `json:"atMs"`
	CPUCores int     `json:"cpuCores"`
	GPUUnits int     `json:"gpuUnits"`
	Weighted float64 `json:"weighted"`
}

// HistBucket is one cumulative latency-histogram bucket.
type HistBucket struct {
	UpperSeconds    float64
	CumulativeCount uint64
}

// Snapshot captures the collector at the latest observed plane time.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotAt(c.last)
}

// SnapshotAt captures the collector as of plane time now (resource
// integrals are projected to now with the current allocation held). The
// document is taken under one hold of the lock, so it sits between two
// events: rows of different functions belong to the same instant.
func (c *Collector) SnapshotAt(now time.Duration) Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotAt(now)
}

// snapshotAt builds the document. The caller holds c.mu.
func (c *Collector) snapshotAt(now time.Duration) Snapshot {
	s := Snapshot{
		SchemaVersion: SchemaVersion,
		AtMs:          ms(now),
		WindowSeconds: (time.Duration(winBuckets) * newWindow(c.opts.Window).width).Seconds(),
	}

	names := make([]string, 0, len(c.fns))
	for name := range c.fns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Functions = append(s.Functions, snapshotFunc(name, c.fns[name], now))
	}

	integ := c.integ // copy, then project without mutating the live state
	if now > 0 {
		integ.Finish(now)
	}
	s.Resources = ResourceSnapshot{
		CPUCores:        c.cur.CPU,
		GPUUnits:        c.cur.GPU,
		CPUCoreSeconds:  integ.CPUCoreSeconds(),
		GPUUnitSeconds:  integ.GPUUnitSeconds(),
		WeightedSeconds: integ.WeightedSeconds(),
		Series:          append([]ResourcePoint(nil), c.series...),
	}
	return s
}

// snapshotFunc renders fs, which the caller's hold of Collector.mu keeps
// still, so nothing is copied first.
func snapshotFunc(name string, fs *funcStats, now time.Duration) FunctionSnapshot {
	rec := &fs.rec
	out := FunctionSnapshot{
		Name:          name,
		SLOMs:         ms(rec.SLO()),
		Arrived:       fs.arrived,
		Served:        rec.Served(),
		Dropped:       rec.Dropped(),
		Shed:          fs.shed,
		Violations:    rec.Violations(),
		ColdServed:    rec.ColdServed(),
		Batches:       fs.batches,
		Launches:      fs.launches,
		ColdLaunches:  fs.coldLaunches,
		LiveInstances: fs.live,
		BatchServed:   make(map[int]uint64, len(fs.batchServed)),
		ColdTimeline:  append([]LaunchPoint(nil), fs.timeline...),
	}
	for b, n := range fs.batchServed {
		out.BatchServed[b] = n
	}
	var anyTiered uint64
	for _, n := range fs.tierStarts {
		anyTiered += n
	}
	if anyTiered > 0 {
		st := &StartupSnapshot{
			TierStarts: map[string]uint64{},
			BootMs:     ms(fs.startupBoot),
			PromoteMs:  ms(fs.startupPromote),
			LoadMs:     map[string]float64{},
		}
		for t := artifact.Tier(0); t < artifact.NumTiers; t++ {
			if fs.tierStarts[t] > 0 {
				st.TierStarts[t.String()] = fs.tierStarts[t]
				st.LoadMs[t.String()] = ms(fs.startupLoad[t])
			}
		}
		out.Startup = st
	}
	arr, served, dropped, viol, covered := fs.win.tally(now)
	cold, wait, exec := rec.Breakdown()
	out.MeanMs = ms(rec.Mean())
	out.MeanColdMs, out.MeanQueueMs, out.MeanExecMs = ms(cold), ms(wait), ms(exec)
	out.ColdStartRate = rec.ColdRate()
	out.SLOViolationRate = rec.ViolationRate()
	if out.Batches > 0 {
		out.MeanBatch = float64(fs.batchSum) / float64(out.Batches)
	}
	out.P50Ms = ms(rec.Percentile(0.50))
	out.P95Ms = ms(rec.Percentile(0.95))
	out.P99Ms = ms(rec.Percentile(0.99))
	out.P999Ms = ms(rec.Percentile(0.999))
	out.QueueP50Ms = ms(fs.queue.Quantile(0.50))
	out.QueueP99Ms = ms(fs.queue.Quantile(0.99))
	out.LatencySumMs = ms(rec.Sum())
	var cum uint64
	rec.Histogram().Each(func(upper time.Duration, count uint64) {
		cum += count
		out.LatencyBuckets = append(out.LatencyBuckets, HistBucket{
			UpperSeconds:    upper.Seconds(),
			CumulativeCount: cum,
		})
	})

	w := WindowSnapshot{Seconds: covered.Seconds(), SLOAttainment: 1}
	if covered > 0 {
		sec := covered.Seconds()
		w.ArrivalRate = float64(arr) / sec
		w.ServedRate = float64(served) / sec
		w.DropRate = float64(dropped) / sec
	}
	if all := served + dropped; all > 0 {
		w.SLOAttainment = 1 - float64(viol+dropped)/float64(all)
	}
	out.Window = w
	return out
}

// Function returns the named function's row of the snapshot (rows are
// sorted by name), or nil.
func (s Snapshot) Function(name string) *FunctionSnapshot {
	i := sort.Search(len(s.Functions), func(i int) bool { return s.Functions[i].Name >= name })
	if i == len(s.Functions) || s.Functions[i].Name != name {
		return nil
	}
	return &s.Functions[i]
}
