package infless

// report.go renders run results. Every statistic here is read from the
// telemetry.Snapshot the collector produced — the same document the
// gateway serves and Telemetry.WriteJSON emits — so the Report, the JSON
// APIs and the Prometheus exposition can never disagree. Field names
// carry explicit JSON tags and the document round-trips through
// encoding/json (see Report.WriteJSON).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
)

// Report summarizes one platform run with the metrics the paper's
// evaluation reports. Durations marshal as nanosecond integers.
type Report struct {
	System   string        `json:"system"`
	Duration time.Duration `json:"duration"`

	Arrived uint64 `json:"arrived"`
	Served  uint64 `json:"served"`
	Dropped uint64 `json:"dropped"`
	// Throughput is served requests per second of run time.
	Throughput float64 `json:"throughput"`
	// ThroughputPerResource is the paper's normalized throughput: served
	// requests per beta-weighted resource-second (Figures 12 and 18).
	ThroughputPerResource float64 `json:"throughputPerResource"`
	// SLOViolationRate counts late responses and drops (Figure 15a).
	SLOViolationRate float64 `json:"sloViolationRate"`
	// Fragmentation is the final resource-fragment ratio (Figure 17b).
	Fragmentation float64 `json:"fragmentation"`
	// CPUCoreSeconds / GPUUnitSeconds are the integrated resource use;
	// ResourceSeconds is their beta-weighted combination.
	CPUCoreSeconds  float64 `json:"cpuCoreSeconds"`
	GPUUnitSeconds  float64 `json:"gpuUnitSeconds"`
	ResourceSeconds float64 `json:"resourceSeconds"`

	Functions []FunctionReport `json:"functions"`

	// Provisioning is the allocation time series (Figure 14): every
	// allocation change, plus fixed-period samples when
	// Options.Telemetry.ResourceSampleEvery is set.
	Provisioning []ProvisionSample `json:"provisioning,omitempty"`
}

// FunctionReport is the per-function view.
type FunctionReport struct {
	Name             string        `json:"name"`
	SLO              time.Duration `json:"slo"`
	Arrived          uint64        `json:"arrived"`
	Served           uint64        `json:"served"`
	Dropped          uint64        `json:"dropped"`
	SLOViolationRate float64       `json:"sloViolationRate"`
	ColdStartRate    float64       `json:"coldStartRate"`
	MeanLatency      time.Duration `json:"meanLatency"`
	P50Latency       time.Duration `json:"p50Latency"`
	P95Latency       time.Duration `json:"p95Latency"`
	P99Latency       time.Duration `json:"p99Latency"`
	P999Latency      time.Duration `json:"p999Latency"`
	// Breakdown components (Figure 15 b/c): mean cold-start wait, batch
	// queuing and execution time of served requests.
	MeanCold  time.Duration `json:"meanCold"`
	MeanQueue time.Duration `json:"meanQueue"`
	MeanExec  time.Duration `json:"meanExec"`
	// MeanBatch is the mean executed batch size.
	MeanBatch float64 `json:"meanBatch"`
	// Launches / ColdLaunches count instance starts.
	Launches     int `json:"launches"`
	ColdLaunches int `json:"coldLaunches"`
	// BatchUsage maps executed batch size -> requests served at that size
	// (Figure 13 a/b).
	BatchUsage map[int]uint64 `json:"batchUsage,omitempty"`
	// ConfigUsage maps "(b,c,g)" labels -> instances launched with that
	// configuration (Figure 13c). Engine state, absent in mid-run reports.
	ConfigUsage map[string]int `json:"configUsage,omitempty"`
	// Startup decomposes cold-launch delay on a tiered plane (absent
	// unless Options.Storage is enabled).
	Startup *StartupReport `json:"startup,omitempty"`
}

// StartupReport is the per-function startup-time breakdown of tiered
// cold launches: cumulative container-boot time, checkpoint load time by
// source tier, cache-promotion time, and launch counts by source tier.
type StartupReport struct {
	TierStarts map[string]uint64        `json:"tierStarts"`
	Boot       time.Duration            `json:"boot"`
	Promote    time.Duration            `json:"promote"`
	Load       map[string]time.Duration `json:"load"`
}

// ProvisionSample is one point of the provisioning time series.
type ProvisionSample struct {
	At       time.Duration `json:"at"`
	CPUCores int           `json:"cpuCores"`
	GPUUnits int           `json:"gpuUnits"`
}

// reportFromSnapshot fills every telemetry-derived Report field; run-only
// engine state (fragmentation, per-configuration usage) stays zero.
func reportFromSnapshot(system string, duration time.Duration, snap telemetry.Snapshot) *Report {
	r := &Report{
		System:          system,
		Duration:        duration,
		CPUCoreSeconds:  snap.Resources.CPUCoreSeconds,
		GPUUnitSeconds:  snap.Resources.GPUUnitSeconds,
		ResourceSeconds: snap.Resources.WeightedSeconds,
	}
	var violations uint64
	for _, f := range snap.Functions {
		r.Arrived += f.Arrived
		r.Served += f.Served
		r.Dropped += f.Dropped
		violations += f.Violations
		fr := FunctionReport{
			Name:             f.Name,
			SLO:              msDuration(f.SLOMs),
			Arrived:          f.Arrived,
			Served:           f.Served,
			Dropped:          f.Dropped,
			SLOViolationRate: f.SLOViolationRate,
			ColdStartRate:    f.ColdStartRate,
			MeanLatency:      msDuration(f.MeanMs),
			P50Latency:       msDuration(f.P50Ms),
			P95Latency:       msDuration(f.P95Ms),
			P99Latency:       msDuration(f.P99Ms),
			P999Latency:      msDuration(f.P999Ms),
			MeanCold:         msDuration(f.MeanColdMs),
			MeanQueue:        msDuration(f.MeanQueueMs),
			MeanExec:         msDuration(f.MeanExecMs),
			MeanBatch:        f.MeanBatch,
			Launches:         f.Launches,
			ColdLaunches:     f.ColdLaunches,
		}
		if len(f.BatchServed) > 0 {
			fr.BatchUsage = make(map[int]uint64, len(f.BatchServed))
			for b, n := range f.BatchServed {
				fr.BatchUsage[b] = n
			}
		}
		if f.Startup != nil {
			sr := &StartupReport{
				TierStarts: make(map[string]uint64, len(f.Startup.TierStarts)),
				Boot:       msDuration(f.Startup.BootMs),
				Promote:    msDuration(f.Startup.PromoteMs),
				Load:       make(map[string]time.Duration, len(f.Startup.LoadMs)),
			}
			for tier, n := range f.Startup.TierStarts {
				sr.TierStarts[tier] = n
			}
			for tier, ld := range f.Startup.LoadMs {
				sr.Load[tier] = msDuration(ld)
			}
			fr.Startup = sr
		}
		r.Functions = append(r.Functions, fr)
	}
	if duration > 0 {
		r.Throughput = float64(r.Served) / duration.Seconds()
	}
	if r.ResourceSeconds > 0 {
		r.ThroughputPerResource = float64(r.Served) / r.ResourceSeconds
	}
	if all := r.Served + r.Dropped; all > 0 {
		r.SLOViolationRate = float64(violations+r.Dropped) / float64(all)
	}
	for _, p := range snap.Resources.Series {
		r.Provisioning = append(r.Provisioning, ProvisionSample{
			At:       msDuration(p.AtMs),
			CPUCores: p.CPUCores,
			GPUUnits: p.GPUUnits,
		})
	}
	return r
}

// buildReport completes a snapshot-derived report with the engine state
// only a finished run knows: fragmentation and configuration usage.
func buildReport(res *sim.Result) *Report {
	r := reportFromSnapshot(res.System, res.Duration, res.Telemetry)
	r.Fragmentation = res.FinalFragmentation
	byName := make(map[string]*sim.FunctionState, len(res.Functions))
	for _, f := range res.Functions {
		byName[f.Spec.Name] = f
	}
	for i := range r.Functions {
		f, ok := byName[r.Functions[i].Name]
		if !ok || len(f.ConfigCount) == 0 {
			continue
		}
		r.Functions[i].ConfigUsage = make(map[string]int, len(f.ConfigCount))
		for c, n := range f.ConfigCount {
			r.Functions[i].ConfigUsage[c] = n
		}
	}
	return r
}

// msDuration inverts the snapshot's millisecond floats. It rounds: the
// division and multiplication each lose under half a nanosecond for any
// duration a run can produce, and truncating came back 1 ns short.
func msDuration(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// WriteJSON writes the report as indented JSON. The document uses the
// stable field names of the json tags above and unmarshals back into a
// Report unchanged (see TestReportJSONRoundTrip).
func (r *Report) WriteJSON(w io.Writer) error {
	return writeIndentedJSON(w, r)
}

// String renders a human-readable summary table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system=%s duration=%v served=%d dropped=%d\n", r.System, r.Duration, r.Served, r.Dropped)
	fmt.Fprintf(&b, "throughput=%.1f rps  throughput/resource=%.2f  slo-violation=%.2f%%  fragmentation=%.1f%%\n",
		r.Throughput, r.ThroughputPerResource, 100*r.SLOViolationRate, 100*r.Fragmentation)
	fmt.Fprintf(&b, "%-14s %9s %8s %8s %8s %9s %9s %9s\n",
		"function", "served", "viol%", "cold%", "p99", "coldAvg", "queueAvg", "execAvg")
	for _, f := range r.Functions {
		fmt.Fprintf(&b, "%-14s %9d %7.2f%% %7.2f%% %8s %9s %9s %9s\n",
			f.Name, f.Served, 100*f.SLOViolationRate, 100*f.ColdStartRate,
			roundMS(f.P99Latency), roundMS(f.MeanCold), roundMS(f.MeanQueue), roundMS(f.MeanExec))
	}
	return b.String()
}

func roundMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// ColdStartResult reports a standalone cold-start policy evaluation.
type ColdStartResult struct {
	Policy        string
	Invocations   int
	ColdStartRate float64
	// WastePerInvocation is the mean image-resident-but-unused time
	// charged per request (Figure 16's "idle resource waste").
	WastePerInvocation time.Duration
}

// EvaluateColdStartPolicy replays a trace of invocation instants against
// a keep-alive policy (Figure 16's experiment: the policy's windows
// alone, no storage tiers) built by FixedKeepAlivePolicy, HHPPolicy or
// LSTHPolicy.
func EvaluateColdStartPolicy(p coldstart.Policy, arrivals []time.Duration) ColdStartResult {
	res := coldstart.Evaluate(coldstart.LegacyTier(p), artifact.Default(), 0, false, arrivals)
	return ColdStartResult{
		Policy:             res.Policy,
		Invocations:        res.Invocations,
		ColdStartRate:      res.ColdRate(),
		WastePerInvocation: res.WastePerInvocation(),
	}
}

// FixedKeepAlivePolicy returns the fixed keep-alive policy used by
// OpenFaaS and BATCH (no pre-warming, constant keep-alive window).
func FixedKeepAlivePolicy(keepAlive time.Duration) coldstart.Policy {
	return coldstart.Fixed{KeepAlive: keepAlive}
}

// HHPPolicy returns the hybrid histogram policy of "Serverless in the
// Wild" (ATC'20) with its default 4-hour tracking window.
func HHPPolicy() coldstart.Policy { return coldstart.NewHHP() }

// LSTHPolicy returns INFless's Long-Short Term Histogram policy (1 h
// short window, 24 h long window) with the given blending weight gamma;
// the paper evaluates 0.3, 0.5 and 0.7. Gamma 0 selects 0.5, as
// Options.LSTHGamma does, and a gamma outside [0,1] panics.
func LSTHPolicy(gamma float64) coldstart.Policy {
	return coldstart.NewLSTH(coldstart.LSTHOptions{Gamma: gamma})
}

// SortedBatchSizes returns the function's used batch sizes ascending —
// convenient for rendering Figure 13-style tables.
func (f FunctionReport) SortedBatchSizes() []int {
	var out []int
	for b := range f.BatchUsage {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}
