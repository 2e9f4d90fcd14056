// Package sim is the execution engine on which INFless and the baseline
// systems run — the one implementation of the request lifecycle (arrival
// → batch queue → execution → completion) and the instance lifecycle
// (cold start → warm → idle → reclaim) on a cluster inventory. Systems
// differ only in their Controller, which decides routing, instance
// configuration and scaling. The engine knows only virtual time and has
// two drivers:
//
//   - Run plays the paper's testbed: a discrete-event simulation over
//     generated traces, mirroring how the paper's large-scale evaluation
//     "runs INFless's real code and scheduling logic against simulated
//     machines".
//   - A live driver (live.go) holds the engine under a lock, keeps its
//     clock at wall time and injects requests as they arrive: that is
//     the HTTP gateway (internal/gateway). What the simulator validates
//     is therefore the serving path, not a copy of it.
//
// The files:
//
//	sim.go        controller interfaces, run configuration, function specs
//	engine.go     Engine construction, the Run loop, results, chains
//	live.go       the live driver's entry points
//	lifecycle.go  request lifecycle: arrival → route → enqueue → batch → complete
//	instances.go  instance lifecycle: launch → warm → idle → reclaim, failures
//
// The engine keeps no statistics of its own: every event goes to one
// telemetry.Collector (Engine.Telemetry) and Result reads its snapshot.
package sim

import (
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

// Admitter is an optional Controller extension: a *native* platform sees
// its own queues, so it can reject a request at enqueue time when the
// projected completion already misses the SLO, instead of serving it
// late and wasting an execution slot on a doomed request. OTP designs
// cannot do this — they sit outside the platform (Observation 5).
type Admitter interface {
	SLOAwareAdmission() bool
}

// Rejector is an optional Controller extension: platforms whose gateway
// rejects requests outright when no instance can take them (HTTP 503)
// instead of buffering them centrally. One-to-one platforms behave this
// way; buffering is the whole point of OTP designs, so BATCH does not.
type Rejector interface {
	RejectOnSaturation() bool
}

// DispatchDelayer is an optional Controller extension: systems built On
// Top of the Platform (OTP) route requests through an external buffer
// layer before they reach the platform, adding dispatch latency the
// platform-internal scheduler never sees (Observation 5). The engine adds
// the returned delay to every served request's queue time.
type DispatchDelayer interface {
	DispatchDelay() time.Duration
}

// BacklogHolder is an optional Controller extension: how long a request
// may wait in a function's backlog. Without it the horizon is the SLO and
// an expired request just drops — the simulated caller timed out. A front
// door with real callers holds them longer (it cannot un-answer) and owes
// them a refusal: its expired requests are shed (Engine.Shed).
type BacklogHolder interface {
	BacklogHold(f *FunctionState) time.Duration
}

// Controller is the control plane of one serverless system. The engine
// calls it on request arrivals and on periodic autoscaling ticks; the
// controller reacts by routing requests and launching or retiring
// instances through the engine's methods.
type Controller interface {
	// Name identifies the system ("infless", "batch", "openfaas+").
	Name() string
	// Init runs once after all functions are registered.
	Init(e *Engine)
	// Route picks the instance that should serve r, or nil to leave the
	// request in the function's pending backlog until capacity appears.
	Route(e *Engine, f *FunctionState, r *Request) *Instance
	// Tick runs once per function per autoscaling interval.
	Tick(e *Engine, f *FunctionState)
}

// Config configures an engine run.
type Config struct {
	Cluster  *cluster.Cluster
	Seed     int64
	Duration time.Duration
	// Collector, when set, is the telemetry collector the engine feeds
	// (a platform keeps the collector it reports from, the gateway one
	// guarded by its lock, a figure one with a sampled resource series).
	// The engine is its one writer and takes no lock. When nil the engine
	// creates its own; either way Engine.Telemetry returns it.
	Collector *telemetry.Collector
	// Warmup excludes requests completing (or dropping) before this
	// virtual time from the latency statistics, so steady-state metrics
	// are not polluted by the initial scale-from-zero ramp. The engine
	// sets it on the collector, supplied or its own (Collector.SetWarmup).
	// Resource integrals still cover the whole run.
	Warmup time.Duration
	// Failures injects server outages: at each failure's time the server
	// goes down, its instances die (queued requests drop), and the
	// controller must re-schedule. Recovery restores capacity.
	Failures []ServerFailure
	// Storage, when active, enables multi-tier artifact loading: each
	// server gets an artifact cache, cold starts are priced by the tier
	// holding the checkpoint (promoting it up the hierarchy), idle
	// functions' artifacts are demoted per their cold-start policy, and
	// — with Storage.Preload — reclaim events opportunistically park
	// other functions' artifacts in the freed server's spare DRAM. Nil
	// or disabled keeps every code path bit-identical to the legacy
	// scalar cold-start formula.
	Storage *artifact.Config
}

// ServerFailure describes one injected outage.
type ServerFailure struct {
	Server int
	At     time.Duration
	// Duration of the outage; 0 means the server never recovers.
	Duration time.Duration
}

// The engine's fixed timings. Ground-truth execution (branch contention,
// run-to-run noise) is model.DefaultExecOptions.
const (
	// ScaleInterval is the autoscaler tick period.
	ScaleInterval = time.Second
	// rateWindow is the arrival-rate estimation window.
	rateWindow = 10 * time.Second
	// warmStartTime is the activation cost of launching from a pre-warmed
	// image (a full cold start instead pays artifact.Legacy).
	warmStartTime = 50 * time.Millisecond
)

func (c *Config) defaults() {
	if c.Cluster == nil {
		c.Cluster = cluster.Testbed()
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
}

// FunctionSpec declares one deployed inference function (the template of
// Figure 5: model, SLO, maximum batch size) plus its workload.
type FunctionSpec struct {
	Name     string
	Model    *model.Model
	SLO      time.Duration
	Trace    *workload.Trace
	MaxBatch int // 0 = model's own maximum
	// Policy decides pre-warming/keep-alive; nil means the controller's
	// default (LSTH for INFless), and a function the controller leaves
	// without one gets the fixed 300s keep-alive (see defaultPolicy).
	Policy coldstart.Policy
	// ForwardTo names the next function of an inference chain: every
	// request completed here is immediately forwarded there (the paper's
	// future-work direction; see internal/core chain support). The target
	// function usually has no Trace of its own.
	ForwardTo string
	// ChainSLO, set on a chain's tail stage, is the end-to-end latency
	// target the chain recorder checks. Zero means the sum of the stage
	// SLOs along the chain.
	ChainSLO time.Duration
	// Artifact describes the function's checkpoint for tiered storage
	// (ignored unless Config.Storage is active). The zero value means
	// "Model.MemoryMB on local SSD", matching the legacy formula; a
	// non-zero SizeMB with Initial left zero starts the artifact remote.
	Artifact artifact.Spec
}

// Request is one inference invocation.
type Request struct {
	Arrive time.Duration
	// ChainStart is the arrival time at the first stage of an inference
	// chain (equal to Arrive for unchained requests and chain heads).
	ChainStart time.Duration
}
