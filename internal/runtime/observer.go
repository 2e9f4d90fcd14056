package runtime

import (
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/perf"
)

// Observer receives request- and instance-lifecycle events from a data
// plane; internal/metrics recorders and the provisioning sampler are
// plain observers rather than being hard-wired into the engine.
//
// All times are plane-time offsets (see the package comment). Observers
// are invoked from the engine's single event loop, one at a time and in
// a deterministic order; under the gateway that loop runs with the
// plane's lock held, so a hook must not call back into the Server.
type Observer interface {
	// RequestArrived fires when a request reaches the function's front
	// door (external arrival or chain forward), before routing.
	RequestArrived(fn string, now time.Duration)
	// RequestEnqueued fires when a request is accepted into an
	// instance's batch queue.
	RequestEnqueued(fn string, instance int, now time.Duration)
	// BatchSubmitted fires when an instance drains a head batch of the
	// given size for execution.
	BatchSubmitted(fn string, instance, size int, now time.Duration)
	// RequestServed fires once per request of a completed batch with its
	// latency decomposition.
	RequestServed(fn string, s metrics.Sample, now time.Duration)
	// RequestDropped fires when a request is rejected, expired, or lost.
	RequestDropped(fn string, now time.Duration)
	// InstanceLaunched fires when an instance starts; cold reports
	// whether it pays a full cold start, startDelay how long until it is
	// ready to serve.
	InstanceLaunched(fn string, instance int, cold bool, startDelay, now time.Duration)
	// InstanceReclaimed fires when an instance's resources are released.
	InstanceReclaimed(fn string, instance int, now time.Duration)
	// AllocationChanged fires when the cluster-wide allocation changes
	// (launch/reclaim/failure) and on provisioning sample ticks.
	AllocationChanged(alloc perf.Resources, now time.Duration)
}

// StartupObserver is an optional extension of Observer for planes that
// run with multi-tier artifact storage enabled: it reports the startup
// breakdown (boot, tier load, promotion) behind each cold launch.
// Observers that don't implement it simply never see the event;
// InstanceLaunched still fires with the total delay, so the base
// interface and every existing recorder keep working unchanged.
type StartupObserver interface {
	// InstanceStartup fires alongside InstanceLaunched for cold launches
	// on a tiered plane, with the tier the artifact was loaded from and
	// the delay decomposition.
	InstanceStartup(fn string, instance int, bd artifact.Breakdown, now time.Duration)
}

// ShedObserver is an optional extension of Observer for planes with
// admission control: RequestShed fires when a request is refused at the
// front door (queue bound hit, capacity exhausted, warm-up backlog
// expired) rather than accepted and later lost. Every shed request also
// fires RequestDropped — shed is a *refinement* of dropped, so drop
// accounting and SLO attainment keep their meaning for observers that
// never learn about shedding.
type ShedObserver interface {
	// RequestShed fires when admission control refuses a request (the
	// gateway answers 429 with a Retry-After hint).
	RequestShed(fn string, now time.Duration)
}

// NopObserver implements Observer with no-ops; embed it to implement
// only the hooks a recorder cares about.
type NopObserver struct{}

func (NopObserver) RequestArrived(string, time.Duration)                             {}
func (NopObserver) RequestEnqueued(string, int, time.Duration)                       {}
func (NopObserver) BatchSubmitted(string, int, int, time.Duration)                   {}
func (NopObserver) RequestServed(string, metrics.Sample, time.Duration)              {}
func (NopObserver) RequestDropped(string, time.Duration)                             {}
func (NopObserver) InstanceLaunched(string, int, bool, time.Duration, time.Duration) {}
func (NopObserver) InstanceReclaimed(string, int, time.Duration)                     {}
func (NopObserver) AllocationChanged(perf.Resources, time.Duration)                  {}

// Observers fans one event stream out to several observers, in order.
type Observers []Observer

func (os Observers) RequestArrived(fn string, now time.Duration) {
	for _, o := range os {
		o.RequestArrived(fn, now)
	}
}

func (os Observers) RequestEnqueued(fn string, instance int, now time.Duration) {
	for _, o := range os {
		o.RequestEnqueued(fn, instance, now)
	}
}

func (os Observers) BatchSubmitted(fn string, instance, size int, now time.Duration) {
	for _, o := range os {
		o.BatchSubmitted(fn, instance, size, now)
	}
}

func (os Observers) RequestServed(fn string, s metrics.Sample, now time.Duration) {
	for _, o := range os {
		o.RequestServed(fn, s, now)
	}
}

func (os Observers) RequestDropped(fn string, now time.Duration) {
	for _, o := range os {
		o.RequestDropped(fn, now)
	}
}

func (os Observers) InstanceLaunched(fn string, instance int, cold bool, startDelay, now time.Duration) {
	for _, o := range os {
		o.InstanceLaunched(fn, instance, cold, startDelay, now)
	}
}

func (os Observers) InstanceReclaimed(fn string, instance int, now time.Duration) {
	for _, o := range os {
		o.InstanceReclaimed(fn, instance, now)
	}
}

func (os Observers) AllocationChanged(alloc perf.Resources, now time.Duration) {
	for _, o := range os {
		o.AllocationChanged(alloc, now)
	}
}

// RequestShed fans the optional admission-control event out to the
// observers that implement ShedObserver.
func (os Observers) RequestShed(fn string, now time.Duration) {
	for _, o := range os {
		if so, ok := o.(ShedObserver); ok {
			so.RequestShed(fn, now)
		}
	}
}

// InstanceStartup fans the optional startup-breakdown event out to the
// observers that implement StartupObserver.
func (os Observers) InstanceStartup(fn string, instance int, bd artifact.Breakdown, now time.Duration) {
	for _, o := range os {
		if so, ok := o.(StartupObserver); ok {
			so.InstanceStartup(fn, instance, bd, now)
		}
	}
}
