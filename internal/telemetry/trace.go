package telemetry

// trace.go is the -trace sink: a runtime.Observer that serializes every
// lifecycle event as one JSON line, so a run can be replayed or analyzed
// offline (per-request latency CDFs, batch regimes, cold-start
// timelines) without rerunning the plane.

import (
	"encoding/json"
	"io"
	"sync"

	"github.com/tanklab/infless/internal/runtime"
)

// TraceEvent is the JSONL schema of one traced event. Fields are only
// set for the kinds they describe.
type TraceEvent struct {
	Event        string  `json:"event"`
	AtMs         float64 `json:"atMs"`
	Fn           string  `json:"fn,omitempty"`
	Instance     int     `json:"instance,omitempty"`
	Batch        int     `json:"batch,omitempty"`
	Cold         bool    `json:"cold,omitempty"`
	StartDelayMs float64 `json:"startDelayMs,omitempty"`
	LatencyMs    float64 `json:"latencyMs,omitempty"`
	ColdMs       float64 `json:"coldMs,omitempty"`
	QueueMs      float64 `json:"queueMs,omitempty"`
	ExecMs       float64 `json:"execMs,omitempty"`
	CPUCores     int     `json:"cpuCores,omitempty"`
	GPUUnits     int     `json:"gpuUnits,omitempty"`
	// Startup lines (tiered cold launches): the tier the checkpoint was
	// loaded from and the delay decomposition.
	Tier      string  `json:"tier,omitempty"`
	BootMs    float64 `json:"bootMs,omitempty"`
	LoadMs    float64 `json:"loadMs,omitempty"`
	PromoteMs float64 `json:"promoteMs,omitempty"`
}

// TraceWriter streams lifecycle events to w as JSON lines. Attach it as
// an additional observer (Engine.Observe, gateway Config.Observer, or
// infless.TelemetryOptions.Trace); it is safe for concurrent use.
type TraceWriter struct {
	runtime.Tap
	mu  sync.Mutex
	enc *json.Encoder
}

// NewTraceWriter creates a trace writer over w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{enc: json.NewEncoder(w)}
	t.Tap = runtime.Tap{Fn: t.write}
	return t
}

func (t *TraceWriter) write(e runtime.Event) {
	out := TraceEvent{
		Event:    string(e.Kind),
		AtMs:     ms(e.At),
		Fn:       e.Fn,
		Instance: e.Instance,
		Batch:    e.Batch,
	}
	switch e.Kind {
	case runtime.EventServed:
		out.LatencyMs = ms(e.Sample.Total())
		out.ColdMs = ms(e.Sample.Cold)
		out.QueueMs = ms(e.Sample.Queue)
		out.ExecMs = ms(e.Sample.Exec)
	case runtime.EventLaunched:
		out.Cold = e.Cold
		out.StartDelayMs = ms(e.StartDelay)
	case runtime.EventAlloc:
		out.CPUCores = e.Alloc.CPU
		out.GPUUnits = e.Alloc.GPU
	case runtime.EventStartup:
		out.Tier = e.Startup.From.String()
		out.BootMs = ms(e.Startup.Boot)
		out.LoadMs = ms(e.Startup.Load)
		out.PromoteMs = ms(e.Startup.Promote)
	}
	t.mu.Lock()
	_ = t.enc.Encode(out)
	t.mu.Unlock()
}
