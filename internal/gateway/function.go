package gateway

// function.go is the wall-clock data plane: per-function instance pools
// whose goroutines collect batches (full-or-timeout, as in Section 3.2)
// and emulate execution by sleeping for the cost model's batch time.
//
// All policy decisions — batch timeout, arrival-rate estimation,
// instance-pool bookkeeping — come from internal/runtime and are the
// same code the discrete-event simulator runs; this file only adapts
// them to wall time. Wall instants convert to "plane time" (model-time
// offsets from the server epoch, scaled by SpeedFactor), so the shared
// policies observe the same timeline in both planes.

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cow"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/pool"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
)

// function is one deployed function's runtime state.
type function struct {
	srv   *Server
	model *model.Model
	plan  *scheduler.Plan
	batch runtime.BatchPolicy

	// slo is the deployed latency target; statistics live in the server's
	// telemetry collector, which observes this function's event stream.
	slo time.Duration

	// maxWait is the admission bound (Config.MaxQueue): when waiting
	// exceeds it, new arrivals shed with 429. Non-positive disables it.
	maxWait int64
	// waiting counts invocations currently inside the gateway (queued
	// for dispatch or executing), maintained lock-free on the hot path.
	waiting atomic.Int64

	// insts is the dispatch snapshot: the pool's members pre-sorted by
	// r_up descending, republished under f.mu on every membership change
	// so offer() walks it with no lock and no per-request sort.
	insts cow.List[*instance]

	mu        sync.Mutex
	pool      runtime.Pool[*instance]
	launchDue time.Duration // plane time; 0 = no launch pending
	closed    bool
}

// publishInstances rebuilds the lock-free dispatch snapshot from the
// pool, ordered by saturation rate r_up descending — the non-uniform
// dispatch preference, applied once per membership change instead of
// once per request. Callers hold f.mu.
func (f *function) publishInstances() {
	insts := f.pool.Snapshot()
	sort.Slice(insts, func(i, j int) bool {
		return insts[i].cand.Bounds.RUp > insts[j].cand.Bounds.RUp
	})
	f.insts.Set(insts)
}

// launchDebounce is how long (in model time) an overflow must persist
// before the gateway sizes and launches an instance. The simulator's
// autoscaler aggregates a full ScaleInterval (1s) of arrivals before
// deciding; launching at the first overflowing request instead would
// size the instance from a near-empty estimator and lock a burst into
// batch-of-1 capacity. One fifth of a tick reacts fast while letting a
// request wave register.
const launchDebounce = 200 * time.Millisecond

// noteArrival records an invocation at the current plane time in the
// server's striped rate map — the stripe lock replaces f.mu here, so
// arrivals for different functions never serialize on one another. The
// shared estimator expires arrivals older than the rate window, so the
// first request after an idle gap no longer sees the pre-idle rate (the
// former fixed-size arrival log never expired).
func (f *function) noteArrival() {
	now := f.srv.planeNow()
	f.srv.rates.Observe(f.name(), now)
	f.srv.obs.RequestArrived(f.name(), now)
}

// demand estimates the model-time request rate for scale-out sizing:
// max(windowed estimate, short-horizon burst), floored at one RPS — the
// gateway scales out reactively (no periodic autoscaler tick), so a
// surge is sized by its instantaneous rate instead of being averaged
// away. Safe with or without f.mu held; the stripe lock is the guard.
func (f *function) demand(now time.Duration) float64 {
	return f.srv.rates.Demand(f.name(), now)
}

// invocation is one in-flight request.
type invocation struct {
	arrived time.Time
	respCh  chan invokeResult
}

type invokeResult struct {
	res InvokeResponse
	err error
}

// instance is one running instance with its own batch queue (a buffered
// channel) and collector goroutine.
type instance struct {
	id     int
	f      *function
	cand   scheduler.Candidate
	server int
	reqCh  chan *invocation
	quit   chan struct{}
	once   sync.Once
	warmAt time.Time
	rng    *rand.Rand

	// retired is set (after retireErr) when the loop is on its way out:
	// from then on whoever puts an invocation in reqCh fails it too.
	retired   atomic.Bool
	retireErr error
}

// Sentinel errors for the invoke path. Sentinels instead of fmt.Errorf
// keep the hot path allocation-free and let handleInvoke map each cause
// to its preformatted body and status code (429 for the shed family,
// 404 for undeployed, 503 for the rest).
var (
	// errWaitWarm signals that scale-out declined to launch because an
	// instance is already warming: the caller should hold its request
	// and re-offer, the way the simulator parks unplaceable requests in
	// the Pending backlog until the autoscaler's launch comes up.
	errWaitWarm = errors.New("gateway: instance warming, backlog held")
	// errShedQueueFull: admission control refused the request because
	// the function already holds Config.MaxQueue invocations.
	errShedQueueFull = errors.New("gateway: function queue full, request shed")
	// errShedNoCapacity: the cluster cannot host another instance and no
	// existing instance has queue room.
	errShedNoCapacity = errors.New("gateway: cluster capacity exhausted, request shed")
	// errShedSaturated: the warm-up hold expired without queue room.
	errShedSaturated = errors.New("gateway: function saturated, request shed")
	// errUndeployed: the function was deleted while the request was in
	// flight.
	errUndeployed = errors.New("gateway: function undeployed")
	// errInvokeTimeout: the dispatched request outlived its deadline.
	errInvokeTimeout = errors.New("gateway: request timed out")
	// errInstanceStopped / errInstanceReclaimed: the owning instance
	// shut down (undeploy) or idled out with the request still queued.
	errInstanceStopped   = errors.New("gateway: instance stopped")
	errInstanceReclaimed = errors.New("gateway: instance reclaimed")
)

// invocationPool recycles invocation headers and their reply channels.
// invoke Puts its handle only when no instance can still hold the
// invocation: after receiving the (single) reply, or when it was never
// enqueued. Timeout/cancel paths drop the handle and leave the
// invocation to the garbage collector instead — the buffered reply
// channel lets a late instance send complete without contaminating a
// reused invocation.
var invocationPool = pool.Of[invocation]{
	New: func() *invocation { return &invocation{respCh: make(chan invokeResult, 1)} },
}

// deadlinePool recycles the per-request deadline timers, stopped. Safe
// because the module requires Go >= 1.23 timer semantics: Stop
// guarantees no late send, so a recycled timer can be Reset without
// draining races.
var deadlinePool = pool.Of[time.Timer]{
	New: func() *time.Timer {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return t
	},
}

// invoke routes one request: admission check, try existing instances,
// scale out if needed, and wait for the batch execution to answer.
// While an instance is warming, overflow requests are held and
// re-offered instead of triggering a launch stampede — the gateway's
// analog of the simulator's Pending backlog. Unlike the simulator
// (whose expirePending models clients timing out at the SLO), a held
// request lives as long as the HTTP client keeps waiting: a real server
// cannot un-answer, so it serves late and lets the violation show up in
// ViolationRate. The hold is bounded: when it expires, or the cluster
// cannot grow, or the function already holds MaxQueue invocations, the
// request sheds (429) instead of queueing unboundedly.
func (f *function) invoke(ctx context.Context) (InvokeResponse, error) {
	if n := f.waiting.Add(1); f.maxWait > 0 && n > f.maxWait {
		f.waiting.Add(-1)
		f.noteArrival()
		f.shed()
		return InvokeResponse{}, errShedQueueFull
	}
	inv := invocationPool.Get()
	inv.V().arrived = time.Now()
	f.noteArrival()
	slo := f.slo
	speed := f.srv.cfg.SpeedFactor

	holdUntil := inv.V().arrived.Add(scale(4*slo, speed) + time.Second)
	poll := scale(slo, speed) / 16
	if poll < 200*time.Microsecond {
		poll = 200 * time.Microsecond
	}
	for !f.offer(inv.V()) {
		err := f.scaleOut()
		if err == nil {
			continue // instance launched; its queue has room
		}
		if err == errWaitWarm && time.Now().Before(holdUntil) {
			time.Sleep(poll)
			continue
		}
		// Never enqueued: the invocation is exclusively ours to recycle.
		f.waiting.Add(-1)
		inv.Put()
		switch err {
		case errWaitWarm:
			f.shed()
			return InvokeResponse{}, errShedSaturated
		case errShedNoCapacity:
			f.shed()
			return InvokeResponse{}, err
		default: // errUndeployed
			f.drop()
			return InvokeResponse{}, err
		}
	}
	deadline := deadlinePool.Get()
	deadline.V().Reset(scale(4*slo, speed) + time.Second)
	var r invokeResult
	select {
	case r = <-inv.V().respCh:
		// The single reply has been received; no instance holds inv.
		inv.Put()
	case <-ctx.Done():
		// inv stays with its instance; abandon it to the GC (its
		// buffered channel absorbs the eventual reply).
		r.err = ctx.Err()
	case <-deadline.V().C:
		r.err = errInvokeTimeout
	}
	f.waiting.Add(-1)
	deadline.V().Stop()
	deadline.Put()
	return r.res, r.err
}

// offer attempts a non-blocking enqueue, preferring instances with the
// highest saturation rate r_up — a greedy approximation of INFless
// non-uniform dispatching (the simulator weights dispatch credits by
// r_up the same way), so load concentrates on big-batch instances and
// undersized ones from the startup ramp starve and idle out. The walk
// is lock-free and allocation-free: the r_up order was applied when the
// membership snapshot was published, not per request.
func (f *function) offer(inv *invocation) bool {
	for inst := range f.insts.All {
		select {
		case inst.reqCh <- inv:
			if inst.retired.Load() {
				// The walk started on a snapshot that still listed inst and
				// the send landed after the loop's own last drain.
				inst.drain()
			}
			return true
		default:
		}
	}
	return false
}

// scaleOut launches one more instance via Algorithm 1 (the plan was built
// with MaxInstancesPerCall = 1). The rate estimate lets AvailableConfig
// admit saturable batch sizes, exactly as the autoscaler does in the
// simulator. Launching is the declared slow path off the zero-alloc
// invoke route: it builds an instance, channels and an RNG per call.
//
//lint:coldpath
func (f *function) scaleOut() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errUndeployed
	}
	// One launch at a time: while an instance is warming, hold the
	// backlog instead of stampeding into more launches (the simulator's
	// autoscaler likewise places at most one instance per tick, and a
	// cold start spans roughly one tick of model time).
	wall := time.Now()
	for _, inst := range f.pool.Members() {
		if inst.warmAt.After(wall) {
			f.mu.Unlock()
			return errWaitWarm
		}
	}
	// Debounce: the first overflow arms a launch deadline; the launch
	// itself happens once the deadline passes, so the demand estimate
	// below has seen the whole request wave, not just its first packet.
	now := f.srv.planeNow()
	if f.launchDue == 0 || now < f.launchDue {
		if f.launchDue == 0 {
			f.launchDue = now + launchDebounce
		}
		f.mu.Unlock()
		return errWaitWarm
	}
	f.launchDue = 0
	// Size the launch by the estimator's CURRENT view (like the sim's
	// autoscaler at tick time), not by whichever request happened to
	// trigger this call. When scale-out runs, no existing capacity could
	// place the request, so the whole demand is residual; provision it
	// with the same alpha headroom the simulator applies (Section 3.2).
	rate := f.demand(now)
	target := runtime.ScaleAheadTarget(rate, rate, runtime.DefaultAlpha)
	f.srv.clMu.Lock()
	decisions, _ := f.plan.Schedule(target, f.srv.cfg.Cluster)
	alloc := f.srv.cfg.Cluster.TotalAllocated()
	f.srv.clMu.Unlock()
	if len(decisions) == 0 {
		f.mu.Unlock()
		return errShedNoCapacity
	}
	d := decisions[0]
	coldDur := modelColdStart(f.model)
	var bd artifact.Breakdown
	tiered := false
	if st := f.srv.cfg.Storage; st.Active() {
		f.srv.clMu.Lock()
		if cache := f.srv.cfg.Cluster.Server(d.Server).Artifacts(); cache != nil {
			// Price the cold start by the tier holding the checkpoint on
			// the chosen server, then promote it so the next launch there
			// starts faster — same mechanics as the simulator's tiered path.
			from := cache.Tier(f.name())
			bd = st.Hierarchy.Startup(f.model.MemoryMB, from)
			if landed := cache.Promote(f.name(), f.model.MemoryMB, artifact.TierDRAM); landed > from {
				bd.Promote = st.Hierarchy.PromoteTime(f.model.MemoryMB, landed)
			}
			coldDur = bd.Total()
			tiered = true
		}
		f.srv.clMu.Unlock()
	}
	inst := &instance{
		id:     f.pool.NextID(),
		f:      f,
		cand:   d.Candidate,
		server: d.Server,
		reqCh:  make(chan *invocation, 2*d.Candidate.B),
		quit:   make(chan struct{}),
		warmAt: time.Now().Add(scale(coldDur, f.srv.cfg.SpeedFactor)),
		rng:    rand.New(rand.NewSource(f.srv.cfg.Seed + int64(f.pool.Len()) + 7)),
	}
	f.pool.Add(inst)
	f.publishInstances()
	f.mu.Unlock()
	now = f.srv.planeNow()
	f.srv.obs.InstanceLaunched(f.name(), inst.id, true, coldDur, now)
	if tiered {
		f.srv.obs.InstanceStartup(f.name(), inst.id, bd, now)
	}
	f.srv.obs.AllocationChanged(alloc, now)
	f.srv.instWG.Add(1)
	go inst.loop()
	return nil
}

// modelColdStart is the emulated model-loading cost (model time; the
// gateway always "pulls" from a warm image cache, but loading the model
// still costs time proportional to its size). Single-sourced from the
// artifact hierarchy's legacy formula, the same arithmetic the
// simulator's perf.ColdStartTime uses.
func modelColdStart(m *model.Model) time.Duration {
	return artifact.Legacy(m.MemoryMB)
}

func scale(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) / factor)
}

func (f *function) name() string {
	return f.plan.Fn.Name
}

func (f *function) drop() {
	f.srv.obs.RequestDropped(f.name(), f.srv.planeNow())
}

// shed records an admission-control refusal: the request is dropped
// (it keeps its place in loss accounting) AND shed (the cause surfaces
// in infless_shed_total and the snapshot's "shed" field).
func (f *function) shed() {
	now := f.srv.planeNow()
	f.srv.obs.RequestDropped(f.name(), now)
	f.srv.obs.RequestShed(f.name(), now)
}

// shutdown stops every instance and releases resources.
func (f *function) shutdown() {
	f.mu.Lock()
	f.closed = true
	insts := f.pool.Clear()
	f.publishInstances()
	f.mu.Unlock()
	f.srv.rates.Remove(f.name())
	for _, inst := range insts {
		inst.stop()
	}
}

// remove drops one instance from the pool (idle reclaim) and releases its
// cluster resources.
func (f *function) remove(inst *instance) {
	f.mu.Lock()
	f.pool.Remove(inst)
	f.publishInstances()
	f.mu.Unlock()
	f.srv.clMu.Lock()
	f.srv.cfg.Cluster.Release(inst.server, inst.cand.Res, f.model.MemoryMB)
	alloc := f.srv.cfg.Cluster.TotalAllocated()
	f.srv.clMu.Unlock()
	now := f.srv.planeNow()
	f.srv.obs.InstanceReclaimed(f.name(), inst.id, now)
	f.srv.obs.AllocationChanged(alloc, now)
}

func (inst *instance) stop() {
	inst.once.Do(func() {
		close(inst.quit)
	})
}

// loop is the instance goroutine: wait for a head request, collect a
// batch until full or the head times out, emulate execution, respond.
// The batch slice and the flush timer are hoisted out of the loop and
// reused, so a steady-state batch round allocates nothing.
func (inst *instance) loop() {
	f := inst.f
	defer f.srv.instWG.Done()
	speed := f.srv.cfg.SpeedFactor
	timeout := scale(f.batch.Timeout(inst.cand.TExec), speed)
	idle := time.NewTimer(f.srv.cfg.IdleTimeout)
	defer idle.Stop()
	batch := make([]*invocation, 0, inst.cand.B)
	flush := time.NewTimer(time.Hour)
	flush.Stop()
	defer flush.Stop()

	// Cold start: the instance is not serving until the model loads.
	coldUntil := inst.warmAt
	if d := time.Until(coldUntil); d > 0 {
		select {
		case <-time.After(d):
		case <-inst.quit:
			inst.retire(nil, errInstanceStopped)
			return
		}
	}

	for {
		idle.Reset(f.srv.cfg.IdleTimeout)
		select {
		case head := <-inst.reqCh:
			batch = append(batch[:0], head)
			flush.Reset(timeout)
		collect:
			for len(batch) < inst.cand.B {
				select {
				case inv := <-inst.reqCh:
					batch = append(batch, inv)
				case <-flush.C:
					break collect
				case <-inst.quit:
					inst.retire(batch, errInstanceStopped)
					return
				}
			}
			flush.Stop()
			f.srv.obs.BatchSubmitted(f.name(), inst.id, len(batch), f.srv.planeNow())
			exec := f.model.ExecTime(len(batch), inst.cand.Res, model.ExecOptions{
				Contention: 0.35, NoiseSD: 0.025, Rng: inst.rng,
			})
			time.Sleep(scale(exec, speed))
			inst.finish(batch, exec, coldUntil)
		case <-idle.C:
			inst.retire(nil, errInstanceReclaimed)
			return
		case <-inst.quit:
			inst.retire(nil, errInstanceStopped)
			return
		}
	}
}

// dispatchAllowance is wall-clock overhead (HTTP handling, goroutine
// scheduling, JSON) that is NOT part of the emulated world and must not
// be multiplied by the speed factor when reporting model-time metrics.
const dispatchAllowance = 1500 * time.Microsecond

// finish answers a completed batch and records its samples. It runs
// once per batch on the instance goroutine and must not allocate: a
// batch round in steady state is reply sends and telemetry observes.
//
//lint:hotpath
func (inst *instance) finish(batch []*invocation, exec time.Duration, coldUntil time.Time) {
	speed := inst.f.srv.cfg.SpeedFactor
	now := time.Now()
	for _, inv := range batch {
		total := now.Sub(inv.arrived)
		cold := time.Duration(0)
		if inv.arrived.Before(coldUntil) {
			cold = coldUntil.Sub(inv.arrived)
		}
		queue := total - cold - scale(exec, speed) - dispatchAllowance
		if queue < 0 {
			queue = 0
		}
		// Record at model time scale: multiply wall components back up so
		// metrics are comparable across SpeedFactor settings.
		sample := metrics.Sample{
			Cold:  time.Duration(float64(cold) * speed),
			Queue: time.Duration(float64(queue) * speed),
			Exec:  exec,
		}
		inst.f.srv.obs.RequestServed(inst.f.name(), sample, inst.f.srv.planeNow())
		inv.respCh <- invokeResult{res: InvokeResponse{
			Function:  inst.f.name(),
			LatencyMs: float64(sample.Total()) / float64(time.Millisecond),
			BatchSize: len(batch),
			ColdStart: cold > 0,
			Instance:  inst.id,
		}}
	}
}

// retire ends the instance: it marks itself retired and leaves the
// dispatch snapshot, so no new offer() finds its queue, and only then
// fails the batch in hand and everything still queued with err.
// Draining before unpublishing stranded every invocation offered in
// between in a queue nobody reads, to surface as errInvokeTimeout a
// whole deadline later. An offer() already walking the old snapshot can
// still send after the drain; it sees retired (set before the drain's
// last look at the queue) and drains again itself.
func (inst *instance) retire(batch []*invocation, err error) {
	inst.retireErr = err
	inst.retired.Store(true)
	inst.f.remove(inst)
	for _, inv := range batch {
		inv.respCh <- invokeResult{err: err}
	}
	inst.drain()
}

// drain fails everything queued on a retired instance. Any number of
// goroutines may run it at once: each queued invocation is received, and
// so answered, exactly once.
func (inst *instance) drain() {
	for {
		select {
		case inv := <-inst.reqCh:
			inv.respCh <- invokeResult{err: inst.retireErr}
		default:
			return
		}
	}
}
