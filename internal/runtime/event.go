package runtime

// event.go gives the Observer stream a value form: every hook maps to
// one Event struct, so sinks that serialize, buffer, or forward events
// (the telemetry trace writer, future shippers) handle one type instead
// of re-implementing the interface and its two optional extensions.

import (
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/perf"
)

// EventKind names one Observer hook.
type EventKind string

// The event kinds, one per Observer, ShedObserver and StartupObserver
// method.
const (
	EventArrived   EventKind = "arrived"
	EventEnqueued  EventKind = "enqueued"
	EventBatch     EventKind = "batch"
	EventServed    EventKind = "served"
	EventDropped   EventKind = "dropped"
	EventLaunched  EventKind = "launched"
	EventReclaimed EventKind = "reclaimed"
	EventAlloc     EventKind = "alloc"
	EventShed      EventKind = "shed"
	EventStartup   EventKind = "startup"
)

// Event is one lifecycle event as a value. Only the fields relevant to
// its Kind are set (e.g. Sample for EventServed, Alloc for EventAlloc).
type Event struct {
	Kind     EventKind
	Fn       string
	At       time.Duration
	Instance int
	// Batch is the drained batch size (EventBatch).
	Batch int
	// Cold and StartDelay describe a launch (EventLaunched).
	Cold       bool
	StartDelay time.Duration
	// Sample is the latency decomposition of a served request
	// (EventServed).
	Sample metrics.Sample
	// Alloc is the cluster-wide allocation (EventAlloc).
	Alloc perf.Resources
	// Startup is the delay decomposition of a tiered cold launch
	// (EventStartup).
	Startup artifact.Breakdown
}

// Tap adapts a func(Event) into an Observer that also hears the
// optional shed and startup hooks: each hook invocation is forwarded as
// one Event value, on the engine's event loop.
type Tap struct {
	Fn func(Event)
}

func (t Tap) RequestArrived(fn string, now time.Duration) {
	t.Fn(Event{Kind: EventArrived, Fn: fn, At: now})
}

func (t Tap) RequestEnqueued(fn string, instance int, now time.Duration) {
	t.Fn(Event{Kind: EventEnqueued, Fn: fn, Instance: instance, At: now})
}

func (t Tap) BatchSubmitted(fn string, instance, size int, now time.Duration) {
	t.Fn(Event{Kind: EventBatch, Fn: fn, Instance: instance, Batch: size, At: now})
}

func (t Tap) RequestServed(fn string, s metrics.Sample, now time.Duration) {
	t.Fn(Event{Kind: EventServed, Fn: fn, Sample: s, At: now})
}

func (t Tap) RequestDropped(fn string, now time.Duration) {
	t.Fn(Event{Kind: EventDropped, Fn: fn, At: now})
}

func (t Tap) InstanceLaunched(fn string, instance int, cold bool, startDelay, now time.Duration) {
	t.Fn(Event{Kind: EventLaunched, Fn: fn, Instance: instance, Cold: cold, StartDelay: startDelay, At: now})
}

func (t Tap) InstanceReclaimed(fn string, instance int, now time.Duration) {
	t.Fn(Event{Kind: EventReclaimed, Fn: fn, Instance: instance, At: now})
}

func (t Tap) AllocationChanged(alloc perf.Resources, now time.Duration) {
	t.Fn(Event{Kind: EventAlloc, Alloc: alloc, At: now})
}

func (t Tap) RequestShed(fn string, now time.Duration) {
	t.Fn(Event{Kind: EventShed, Fn: fn, At: now})
}

func (t Tap) InstanceStartup(fn string, instance int, bd artifact.Breakdown, now time.Duration) {
	t.Fn(Event{Kind: EventStartup, Fn: fn, Instance: instance, Startup: bd, At: now})
}
