// Package metrics collects the measurements the INFless evaluation
// reports: end-to-end latency with its cold-start / batch-queue /
// execution breakdown (Figure 15), SLO violation rates, throughput per
// unit of occupied resource (Figure 12/18), and time-integrated resource
// provisioning (Figure 14).
package metrics

import (
	"time"

	"github.com/tanklab/infless/internal/perf"
)

// Sample is the latency decomposition of one served request:
// l = t_cold + t_batch + t_exec (Section 3.1).
type Sample struct {
	Cold  time.Duration // cold-start wait (0 when warm)
	Queue time.Duration // time waiting in the batch queue
	Exec  time.Duration // batch execution time
}

// Total is the end-to-end latency of the request.
func (s Sample) Total() time.Duration { return s.Cold + s.Queue + s.Exec }

// LatencyRecorder accumulates per-request latency samples for one
// function (or one system run). Its quantiles come from the shared
// log-bucketed Histogram (histogram.go).
type LatencyRecorder struct {
	hist Histogram

	served     uint64
	dropped    uint64
	coldCount  uint64
	violations uint64
	slo        time.Duration

	sumTotal time.Duration
	sumCold  time.Duration
	sumQueue time.Duration
	sumExec  time.Duration
}

// NewLatencyRecorder creates a recorder that checks violations against
// the given SLO (zero disables violation accounting).
func NewLatencyRecorder(slo time.Duration) *LatencyRecorder {
	return &LatencyRecorder{slo: slo}
}

// SetSLO changes the target latency checked from the next Observe on;
// counts already taken stay.
func (r *LatencyRecorder) SetSLO(slo time.Duration) { r.slo = slo }

// Observe records one served request and reports whether it missed the
// SLO — the one place that comparison is made.
func (r *LatencyRecorder) Observe(s Sample) (late bool) {
	total := s.Total()
	r.hist.Add(total)
	r.served++
	r.sumTotal += total
	r.sumCold += s.Cold
	r.sumQueue += s.Queue
	r.sumExec += s.Exec
	if s.Cold > 0 {
		r.coldCount++
	}
	late = r.slo > 0 && total > r.slo
	if late {
		r.violations++
	}
	return late
}

// Drop records a request rejected by over-submission. Drops count as SLO
// violations: the user never received an answer.
func (r *LatencyRecorder) Drop() { r.dropped++ }

// Served returns the number of completed requests.
func (r *LatencyRecorder) Served() uint64 { return r.served }

// Dropped returns the number of dropped requests.
func (r *LatencyRecorder) Dropped() uint64 { return r.dropped }

// Violations returns the number of served requests that missed the SLO.
func (r *LatencyRecorder) Violations() uint64 { return r.violations }

// ColdServed returns the number of served requests that paid a cold start.
func (r *LatencyRecorder) ColdServed() uint64 { return r.coldCount }

// SLO returns the recorder's target latency.
func (r *LatencyRecorder) SLO() time.Duration { return r.slo }

// ColdRate is the fraction of served requests that paid a cold start.
func (r *LatencyRecorder) ColdRate() float64 {
	if r.served == 0 {
		return 0
	}
	return float64(r.coldCount) / float64(r.served)
}

// ViolationRate is the fraction of all requests (served + dropped) that
// missed the SLO.
func (r *LatencyRecorder) ViolationRate() float64 {
	n := r.served + r.dropped
	if n == 0 {
		return 0
	}
	return float64(r.violations+r.dropped) / float64(n)
}

// Percentile returns the q-quantile of end-to-end latency.
func (r *LatencyRecorder) Percentile(q float64) time.Duration {
	return r.hist.Quantile(q)
}

// Histogram returns the end-to-end latency histogram behind Percentile.
func (r *LatencyRecorder) Histogram() *Histogram { return &r.hist }

// Sum returns the total end-to-end latency of the served requests.
func (r *LatencyRecorder) Sum() time.Duration { return r.sumTotal }

// Mean returns the average end-to-end latency.
func (r *LatencyRecorder) Mean() time.Duration {
	if r.served == 0 {
		return 0
	}
	return r.sumTotal / time.Duration(r.served)
}

// Breakdown returns the average cold / queue / exec components
// (Figure 15 b/c).
func (r *LatencyRecorder) Breakdown() (cold, queue, exec time.Duration) {
	if r.served == 0 {
		return 0, 0, 0
	}
	n := time.Duration(r.served)
	return r.sumCold / n, r.sumQueue / n, r.sumExec / n
}

// Reset returns the recorder to its initial state against a new SLO,
// keeping the histogram's bucket storage so pooled recorders do not
// re-allocate it every reuse.
func (r *LatencyRecorder) Reset(slo time.Duration) {
	r.hist.Reset()
	r.served = 0
	r.dropped = 0
	r.coldCount = 0
	r.violations = 0
	r.slo = slo
	r.sumTotal = 0
	r.sumCold = 0
	r.sumQueue = 0
	r.sumExec = 0
}

// Clone returns an independent copy: readers copy under the owner's
// lock, then compute quantiles outside it.
func (r *LatencyRecorder) Clone() *LatencyRecorder {
	c := *r
	c.hist = r.hist.Clone()
	return &c
}

// Merge folds another recorder's counts into r (same SLO assumed).
func (r *LatencyRecorder) Merge(o *LatencyRecorder) {
	if o == nil {
		return
	}
	r.hist.Merge(&o.hist)
	r.served += o.served
	r.dropped += o.dropped
	r.coldCount += o.coldCount
	r.violations += o.violations
	r.sumTotal += o.sumTotal
	r.sumCold += o.sumCold
	r.sumQueue += o.sumQueue
	r.sumExec += o.sumExec
}

// ResourceIntegrator tracks time-weighted resource occupation: call
// Update whenever the allocated amount changes, then read resource-time
// integrals. It powers "RPS per unit of resource" (Figure 12/18) and
// provisioning-over-time curves (Figure 14).
type ResourceIntegrator struct {
	last    time.Duration
	current perf.Resources
	cpuSecs float64
	gpuSecs float64
	started bool
}

// Update advances the integrator to virtual time now with the allocation
// that held *since the previous update*, then records the new allocation.
func (ri *ResourceIntegrator) Update(now time.Duration, allocated perf.Resources) {
	if ri.started {
		dt := (now - ri.last).Seconds()
		if dt > 0 {
			ri.cpuSecs += float64(ri.current.CPU) * dt
			ri.gpuSecs += float64(ri.current.GPU) * dt
		}
	}
	ri.last = now
	ri.current = allocated
	ri.started = true
}

// Finish integrates up to end without changing the current allocation.
func (ri *ResourceIntegrator) Finish(end time.Duration) {
	ri.Update(end, ri.current)
}

// CPUCoreSeconds returns integrated CPU occupation.
func (ri *ResourceIntegrator) CPUCoreSeconds() float64 { return ri.cpuSecs }

// GPUUnitSeconds returns integrated GPU occupation.
func (ri *ResourceIntegrator) GPUUnitSeconds() float64 { return ri.gpuSecs }

// WeightedSeconds returns the beta-weighted resource-time integral, the
// denominator of the paper's throughput-per-resource metric.
func (ri *ResourceIntegrator) WeightedSeconds() float64 {
	return perf.Beta*ri.cpuSecs + ri.gpuSecs
}
