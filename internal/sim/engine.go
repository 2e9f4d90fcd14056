package sim

// engine.go owns Engine construction, function registration, the Run
// loop (arrival streams, autoscaler ticks, failure injection, draining)
// and result aggregation. Request- and instance-lifecycle mechanics live
// in lifecycle.go and instances.go; live.go is the other way to drive
// them.

import (
	"math/rand"
	"slices"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/simclock"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

// FunctionState is the engine-side record of one function.
type FunctionState struct {
	Spec    FunctionSpec
	Pending []*Request
	Policy  coldstart.Policy

	// Preloads and ConfigCount are engine facts no observer event
	// carries; every other per-function statistic is in the collector
	// (Engine.Telemetry). Preloads counts opportunistic pre-loads of this
	// function's artifact into a server's spare DRAM (tiered storage
	// with Preload only).
	Preloads    int
	ConfigCount map[string]int  // instances launched, by (b,c,g) label
	plan        *scheduler.Plan // lazily built by controllers that need it

	// ChainRecorder tracks end-to-end chain latency for requests whose
	// chain terminates at this function (nil when the function is not a
	// chain tail). The chain's end-to-end SLO is the tail's recorder SLO.
	ChainRecorder *metrics.LatencyRecorder
	forwardTo     *FunctionState

	// artSizeMB is the function's checkpoint size for tiered storage
	// (Spec.Artifact.SizeMB defaulted to the model's memory footprint).
	artSizeMB int

	ledger         *telemetry.Ledger // the collector's record of this function
	instances      []*Instance       // live, in launch order
	nextID         int               // the last instance ID issued: IDs run 1, 2, 3, ...
	batch          runtime.BatchPolicy
	rate           *runtime.RateEstimator
	lastArrival    time.Duration
	haveArrival    bool
	prewarm        simclock.Timer
	prewarmedUntil time.Duration
	ctrlState      any // controller-private per-function state
}

// Instances returns the function's live instances in launch order
// (callers must not mutate the slice).
func (f *FunctionState) Instances() []*Instance { return f.instances }

// removeInstance deletes inst from f's instances, preserving order;
// removing it twice is a no-op.
func (f *FunctionState) removeInstance(inst *Instance) {
	if i := slices.Index(f.instances, inst); i >= 0 {
		f.instances = append(f.instances[:i], f.instances[i+1:]...)
	}
}

// RateEstimate returns the function's observed arrival rate (RPS) over
// the engine's rate window.
func (f *FunctionState) RateEstimate(now time.Duration) float64 {
	return f.rate.Estimate(now)
}

// Demand is the sizing input of a reactive scale-out (see
// runtime.RateEstimator.Demand).
func (f *FunctionState) Demand(now time.Duration) float64 { return f.rate.Demand(now) }

// CtrlState returns controller-private state attached to the function.
func (f *FunctionState) CtrlState() any { return f.ctrlState }

// SetCtrlState attaches controller-private state to the function.
func (f *FunctionState) SetCtrlState(v any) { f.ctrlState = v }

// Plan returns the function's scheduler plan, building it on first use
// with the supplied predictor and options.
func (f *FunctionState) Plan(pred scheduler.Predictor, opts scheduler.Options) *scheduler.Plan {
	if f.plan == nil {
		f.plan = scheduler.BuildPlan(scheduler.Function{
			Name:     f.Spec.Name,
			Model:    f.Spec.Model,
			SLO:      f.Spec.SLO,
			MaxBatch: f.Spec.MaxBatch,
		}, pred, opts)
	}
	return f.plan
}

// Engine runs one system against one workload on one cluster.
type Engine struct {
	cfg    Config
	ctrl   Controller
	clock  *simclock.Clock
	rng    *rand.Rand
	fns    []*FunctionState
	byName map[string]*FunctionState

	// collector is the engine's one ledger (engine-owned unless Config
	// supplied one); every reported statistic — Result totals, Report
	// quantiles, resource integrals, provisioning series — reads from it.
	// Each hook books the event on it first, through the function's
	// Ledger, then fans it out to obs, the observers Observe attached;
	// the fan-out inlines, so with none attached it costs a length check.
	collector *telemetry.Collector
	obs       runtime.Observers
	// rates owns every function's arrival-rate estimator plus the
	// plane-wide arrival ring behind PlaneRate; the event loop holds
	// direct estimator pointers (FunctionState.rate).
	rates *runtime.RateStripes

	freeReqs []*Request              // answered requests, for reuse (NewRequest)
	done     func(*Request, Outcome) // completion hook (OnDone)
	started  bool                    // Start has run
}

// New creates an engine for the controller and configuration.
func New(ctrl Controller, cfg Config) *Engine {
	cfg.defaults()
	e := &Engine{
		cfg:    cfg,
		ctrl:   ctrl,
		clock:  simclock.New(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		byName: map[string]*FunctionState{},
		rates:  runtime.NewRateStripes(rateWindow),
	}
	e.collector = cfg.Collector
	if e.collector == nil {
		e.collector = telemetry.New(telemetry.Options{})
	}
	e.collector.SetWarmup(cfg.Warmup)
	if cfg.Storage.Active() {
		cfg.Cluster.EnableArtifacts(cfg.Storage.CacheMB)
	}
	return e
}

// storageActive reports whether multi-tier artifact loading is on for
// this run. When false, every lifecycle path is the legacy one.
func (e *Engine) storageActive() bool { return e.cfg.Storage.Active() }

// Telemetry returns the engine's collector; read it after Run for the
// final state, or during a run from the engine's goroutine (an observer,
// a live driver holding the collector's guard).
func (e *Engine) Telemetry() *telemetry.Collector { return e.collector }

// Observe attaches an additional lifecycle observer; events fire from
// the engine's single event loop, after the collector has booked them.
func (e *Engine) Observe(o runtime.Observer) { e.obs = append(e.obs, o) }

// AddFunction registers a function: before Run, or at any time on a
// live engine (whoever adds it then sets up the controller's state).
func (e *Engine) AddFunction(spec FunctionSpec) *FunctionState {
	if spec.Model == nil {
		panic("sim: function without model")
	}
	if spec.SLO <= 0 {
		panic("sim: function without SLO")
	}
	if spec.MaxBatch == 0 || spec.MaxBatch > spec.Model.MaxBatch {
		spec.MaxBatch = spec.Model.MaxBatch
	}
	f := &FunctionState{
		Spec:        spec,
		Policy:      spec.Policy,
		ConfigCount: map[string]int{},
		batch:       runtime.BatchPolicy{SLO: spec.SLO},
		rate:        e.rates.Get(spec.Name),
	}
	if e.started {
		defaultPolicy(f)
	}
	f.artSizeMB = spec.Artifact.SizeMB
	if f.artSizeMB == 0 {
		f.artSizeMB = spec.Model.MemoryMB
	}
	if e.storageActive() {
		initial := spec.Artifact.Initial
		if spec.Artifact == (artifact.Spec{}) {
			// Zero-value spec: checkpoint already on every local SSD, the
			// legacy formula's assumption.
			initial = artifact.TierSSD
		}
		e.cfg.Cluster.SeedArtifact(spec.Name, f.artSizeMB, initial)
	}
	f.ledger = e.collector.Register(spec.Name, spec.SLO)
	e.fns = append(e.fns, f)
	e.byName[spec.Name] = f
	return f
}

// defaultPolicy gives a function its controller left without a
// cold-start policy the fixed keep-alive both baselines use: 300 s warm,
// no pre-warming, the artifact resting on SSD, no idle recording. From
// Start on, every function has a policy.
func defaultPolicy(f *FunctionState) {
	if f.Policy == nil {
		f.Policy = coldstart.Fixed{KeepAlive: coldstart.DefaultFixedKeepAlive}
	}
}

// Functions returns the registered functions, in registration order.
func (e *Engine) Functions() []*FunctionState { return e.fns }

// Function returns the function registered under name, or nil.
func (e *Engine) Function(name string) *FunctionState { return e.byName[name] }

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cfg.Cluster }

// Now returns current virtual time.
func (e *Engine) Now() time.Duration { return e.clock.Now() }

// PlaneRate returns the plane-wide arrival rate (RPS) over the rate
// window, aggregated lock-free across all functions — the telemetry
// headline number, never a scheduling input.
func (e *Engine) PlaneRate() float64 { return e.rates.PlaneRate(e.clock.Now()) }

// allocationChanged publishes the cluster's allocation at plane time now
// (resource integration, provisioning series).
func (e *Engine) allocationChanged(now time.Duration) {
	alloc := e.cfg.Cluster.TotalAllocated()
	e.collector.AllocationChanged(alloc, now)
	e.obs.AllocationChanged(alloc, now)
}

// Result summarizes a completed run.
type Result struct {
	System             string
	Duration           time.Duration
	Functions          []*FunctionState
	FinalFragmentation float64

	// Telemetry is the collector's final snapshot: every count, latency
	// statistic, resource integral and provisioning series of the run.
	// The methods below only total it.
	Telemetry telemetry.Snapshot
}

// Served sums completed requests over all functions.
func (r *Result) Served() uint64 {
	var n uint64
	for i := range r.Telemetry.Functions {
		n += r.Telemetry.Functions[i].Served
	}
	return n
}

// Dropped sums dropped requests over all functions.
func (r *Result) Dropped() uint64 {
	var n uint64
	for i := range r.Telemetry.Functions {
		n += r.Telemetry.Functions[i].Dropped
	}
	return n
}

// ThroughputPerResource is the paper's normalized throughput metric:
// served requests per beta-weighted resource-second.
func (r *Result) ThroughputPerResource() float64 {
	if r.Telemetry.Resources.WeightedSeconds <= 0 {
		return 0
	}
	return float64(r.Served()) / r.Telemetry.Resources.WeightedSeconds
}

// ViolationRate is the overall SLO violation rate across functions,
// weighted in registration order (the snapshot's rows are sorted by
// name, and a float sum depends on its order).
func (r *Result) ViolationRate() float64 {
	var bad, all float64
	for _, f := range r.Functions {
		fs := r.Telemetry.Function(f.Spec.Name)
		n := float64(fs.Served + fs.Dropped)
		bad += fs.SLOViolationRate * n
		all += n
	}
	if all == 0 {
		return 0
	}
	return bad / all
}

// Run executes the simulation and returns the results.
func (e *Engine) Run() *Result {
	e.Start()

	// Arrival streams: one self-rescheduling chain per function keeps the
	// event heap small regardless of trace length.
	for _, f := range e.fns {
		if f.Spec.Trace == nil {
			continue
		}
		a := &arrivals{e: e, f: f, stream: workload.NewStream(f.Spec.Trace, e.cfg.Duration,
			rand.New(rand.NewSource(e.cfg.Seed+int64(len(f.Spec.Name)))))}
		a.fire = a.arrive
		a.arm()
	}
	// Failure injection.
	for _, fail := range e.cfg.Failures {
		fail := fail
		e.clock.ScheduleAt(fail.At, func() { e.failServer(fail.Server) })
		if fail.Duration > 0 {
			e.clock.ScheduleAt(fail.At+fail.Duration, func() {
				e.cfg.Cluster.SetDown(fail.Server, false)
			})
		}
	}

	// Autoscaler ticks.
	var tick func()
	tick = func() {
		for _, f := range e.fns {
			e.expirePending(f)
			e.ctrl.Tick(e, f)
		}
		if e.clock.Now()+ScaleInterval <= e.cfg.Duration {
			e.clock.ScheduleAfter(ScaleInterval, tick)
		}
	}
	e.clock.ScheduleAfter(ScaleInterval, tick)

	e.clock.RunUntil(e.cfg.Duration)

	// Drain: unfinished pending requests are drops.
	for _, f := range e.fns {
		for _, req := range f.Pending {
			e.drop(f, req, false)
		}
		f.Pending = nil
	}
	// Final allocation event closes the resource integral (and flushes
	// remaining utilization-series samples) at end-of-run time.
	e.allocationChanged(e.cfg.Duration)

	return &Result{
		System:             e.ctrl.Name(),
		Duration:           e.cfg.Duration,
		Functions:          e.fns,
		FinalFragmentation: e.cfg.Cluster.FragmentationRatio(),
		Telemetry:          e.collector.SnapshotAt(e.cfg.Duration),
	}
}

// arrivals is one traced function's arrival chain. fire is built once
// and re-arms itself, as an instance's timeout/completion/idle callbacks
// do, so an arrival allocates no closure.
type arrivals struct {
	e      *Engine
	f      *FunctionState
	stream *workload.Stream
	fire   func() // arrive, bound once
}

// arrive injects one request and arms the next arrival.
func (a *arrivals) arrive() {
	a.e.Inject(a.f, a.e.NewRequest())
	a.arm()
}

// arm schedules fire at the stream's next arrival instant, if any.
func (a *arrivals) arm() {
	at, ok := a.stream.Next()
	if !ok {
		return
	}
	if now := a.e.clock.Now(); at < now {
		at = now
	}
	a.e.clock.ScheduleAt(at, a.fire)
}

// resolveChains links ForwardTo names to function states and attaches
// end-to-end recorders to chain tails.
func (e *Engine) resolveChains() {
	isTarget := map[*FunctionState]bool{}
	for _, f := range e.fns {
		if f.Spec.ForwardTo == "" {
			continue
		}
		next, ok := e.byName[f.Spec.ForwardTo]
		if !ok {
			panic("sim: chain target " + f.Spec.ForwardTo + " not deployed")
		}
		if next == f {
			panic("sim: function cannot chain to itself")
		}
		f.forwardTo = next
		isTarget[next] = true
	}
	for _, f := range e.fns {
		if isTarget[f] && f.forwardTo == nil {
			// Chain tail: per-stage SLOs are controller business; the
			// end-to-end target is declared on the tail, defaulting to the
			// sum of the stage SLOs upstream.
			slo := f.Spec.ChainSLO
			if slo == 0 {
				slo = e.chainSLO(f)
			}
			f.ChainRecorder = metrics.NewLatencyRecorder(slo)
		}
	}
}

// chainSLO sums SLOs along the (single-path) chain ending at tail.
func (e *Engine) chainSLO(tail *FunctionState) time.Duration {
	total := tail.Spec.SLO
	for {
		var prev *FunctionState
		for _, f := range e.fns {
			if f.forwardTo == tail {
				prev = f
				break
			}
		}
		if prev == nil {
			return total
		}
		total += prev.Spec.SLO
		tail = prev
	}
}
