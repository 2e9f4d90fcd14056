package sim

// instances.go is the instance lifecycle: launch (cold or pre-warmed) →
// warm serving → idle keep-alive → reclaim, plus server-failure fallout
// and function pre-warm windows. Each instance carries its dispatch
// credit; keep-alive and pre-warm windows come from the function's
// cold-start policy (internal/coldstart).

import (
	"fmt"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/simclock"
)

// Instance is a running (or starting) function instance.
type Instance struct {
	ID       int
	Fn       *FunctionState
	Cand     scheduler.Candidate
	Server   int
	ReadyAt  time.Duration // cold start completes at this time
	Ready    bool
	Busy     bool
	Draining bool
	Queue    *batching.Queue[*Request]
	Rate     float64 // dispatch weight (INFless non-uniform dispatching)
	credit   float64

	// idleUntil is the keep-alive deadline of the instance's latest idle
	// spell: it is reclaimed there if it is still idle (ready, not busy,
	// nothing queued). A new spell only sets it; the armed reclaim timer
	// stays where it is while it fires no later (scheduleReclaim, onIdle).
	idleUntil time.Duration
	reclaimed bool

	// The executing batch: at most one runs per instance, so one buffer
	// serves every drain and the completion event finds it here.
	batch            []*Request
	submitted, texec time.Duration
	// baseExec[n] is the noise-free execution time of a batch of n on
	// Cand.Res, filled on first use (0: not yet): what varies between two
	// batches of one size is the jitter alone.
	baseExec []time.Duration

	// Pending events and their callbacks, built once at launch: arming
	// one allocates nothing.
	ready, reclaim, timeout, done simclock.Timer
	onTimeout, onDone, onIdle     func()
}

// CanAccept reports whether the instance's batch queue has room.
func (inst *Instance) CanAccept() bool {
	return inst.Queue.Len() < 2*inst.Cand.B
}

// Credit returns the instance's dispatch credit (see internal/core).
func (inst *Instance) Credit() float64 { return inst.credit }

// AddCredit adjusts the dispatch credit of Section 3.2's credit-based
// weighted dispatching — credit accrues at the instance's assigned rate
// and each routed request adds -1 — clamped from above by cap, at most
// one burst's worth of stored credit.
func (inst *Instance) AddCredit(delta, cap float64) {
	inst.credit += delta
	if inst.credit > cap {
		inst.credit = cap
	}
}

// Launch starts a new instance of f with candidate configuration cand on
// server. It returns nil when the cluster cannot host the instance.
func (e *Engine) Launch(f *FunctionState, cand scheduler.Candidate, server int) *Instance {
	if err := e.cfg.Cluster.Allocate(server, cand.Res, f.Spec.Model.MemoryMB); err != nil {
		return nil
	}
	return e.launchAllocated(f, cand, server)
}

// LaunchPlaced starts an instance whose resources were already reserved
// by scheduler.Plan.Schedule (which allocates as it packs).
func (e *Engine) LaunchPlaced(f *FunctionState, d scheduler.Decision) *Instance {
	return e.launchAllocated(f, d.Candidate, d.Server)
}

func (e *Engine) launchAllocated(f *FunctionState, cand scheduler.Candidate, server int) *Instance {
	now := e.clock.Now()
	e.allocationChanged(now)

	coldDur := artifact.Legacy(f.Spec.Model.MemoryMB)
	cold := now >= f.prewarmedUntil
	var bd artifact.Breakdown
	tiered := false
	if !cold {
		coldDur = warmStartTime
	} else if e.storageActive() {
		if cache := e.cfg.Cluster.Server(server).Artifacts(); cache != nil {
			// Price the cold start by the tier holding the checkpoint on
			// this server, then promote the artifact up the hierarchy so
			// the next launch here starts faster.
			from := cache.Tier(f.Spec.Name)
			bd = e.cfg.Storage.Hierarchy.Startup(f.artSizeMB, from)
			if landed := cache.Promote(f.Spec.Name, f.artSizeMB, artifact.TierDRAM); landed > from {
				bd.Promote = e.cfg.Storage.Hierarchy.PromoteTime(f.artSizeMB, landed)
			}
			coldDur = bd.Total()
			tiered = true
		}
	}
	f.ConfigCount[fmt.Sprintf("(%d,%d,%d)", cand.B, cand.Res.CPU, cand.Res.GPU)]++

	f.nextID++
	inst := &Instance{
		ID:       f.nextID,
		Fn:       f,
		Cand:     cand,
		Server:   server,
		ReadyAt:  now + coldDur,
		Queue:    batching.NewQueue[*Request](cand.B, f.batch.Timeout(cand.TExec)),
		Rate:     cand.Bounds.RUp,
		batch:    make([]*Request, 0, cand.B),
		baseExec: make([]time.Duration, cand.B+1),
	}
	inst.onTimeout = func() { e.trySubmit(inst) }
	inst.onDone = func() { e.onBatchComplete(inst) }
	inst.onIdle = func() {
		switch {
		case inst.idleUntil > e.clock.Now(): // a later spell moved the deadline
			inst.reclaim = e.clock.ScheduleAt(inst.idleUntil, inst.onIdle)
		case inst.Ready && !inst.Busy && inst.Queue.Len() == 0:
			e.Reclaim(inst)
		}
	}
	f.instances = append(f.instances, inst)
	f.ledger.InstanceLaunched(cold, coldDur, now)
	e.obs.InstanceLaunched(f.Spec.Name, inst.ID, cold, coldDur, now)
	if tiered {
		f.ledger.InstanceStartup(bd, now)
		e.obs.InstanceStartup(f.Spec.Name, inst.ID, bd, now)
	}
	inst.ready = e.clock.ScheduleAfter(coldDur, func() {
		inst.Ready = true
		if inst.Queue.Len() > 0 {
			e.trySubmit(inst)
			e.armTimeout(inst)
		} else {
			e.scheduleReclaim(inst)
		}
	})
	return inst
}

// Retire marks an instance as draining: it receives no new requests and
// is reclaimed once its queue empties.
func (e *Engine) Retire(inst *Instance) {
	inst.Draining = true
	if inst.Ready && !inst.Busy && inst.Queue.Len() == 0 {
		e.Reclaim(inst)
	}
}

// Reclaim releases the instance's resources and removes it from its
// function. The requests it holds are dropped: the executing batch, if a
// failed server or an undeploy takes the instance mid-batch, then the
// queued ones. Reclaiming twice is a no-op (failure injection can race
// with keep-alive expiry).
func (e *Engine) Reclaim(inst *Instance) {
	if inst.reclaimed {
		return
	}
	inst.reclaimed = true
	now := e.clock.Now()
	f := inst.Fn
	if inst.Busy {
		inst.done.Cancel()
		for _, req := range inst.batch {
			e.drop(f, req, false)
		}
	}
	for {
		batch, _, ok := inst.Queue.Drain(now)
		if !ok {
			break
		}
		for _, req := range batch {
			e.drop(f, req, false)
		}
	}
	inst.ready.Cancel()
	inst.reclaim.Cancel()
	inst.timeout.Cancel()
	e.cfg.Cluster.Release(inst.Server, inst.Cand.Res, f.Spec.Model.MemoryMB)
	f.removeInstance(inst)
	f.ledger.InstanceReclaimed(now)
	e.obs.InstanceReclaimed(f.Spec.Name, inst.ID, now)
	e.allocationChanged(now)
	if e.storageActive() {
		e.demoteAndPreload(f, inst.Server, now)
	}
	if len(f.instances) == 0 {
		e.schedulePrewarm(f)
	}
}

// preloadPerReclaim caps how many artifacts one reclaim event may
// opportunistically pre-load into the freed server's spare DRAM.
const preloadPerReclaim = 2

// demoteAndPreload applies the tiered idle transition after a reclaim on
// server: the departing function's artifact is demoted to the tier its
// cold-start policy decides (LSTH parks it in DRAM through the pause
// stage; legacy-shaped policies rest it on SSD), and — when pre-loading
// is on — other functions' artifacts are parked in the server's spare
// DRAM without evicting residents, in registration order for
// determinism.
func (e *Engine) demoteAndPreload(f *FunctionState, server int, now time.Duration) {
	cache := e.cfg.Cluster.Server(server).Artifacts()
	if cache == nil {
		return
	}
	cache.Demote(f.Spec.Name, f.Policy.Decide(now).IdleTier)
	if !e.cfg.Storage.Preload {
		return
	}
	loaded := 0
	for _, g := range e.fns {
		if loaded >= preloadPerReclaim {
			break
		}
		if g == f || cache.Tier(g.Spec.Name) >= artifact.TierDRAM {
			continue
		}
		if cache.PutIfFree(g.Spec.Name, g.artSizeMB, artifact.TierDRAM) {
			g.Preloads++
			loaded++
		}
	}
}

// scheduleReclaim starts an idle spell: the instance is reclaimed at
// now + keep-alive unless work arrives first. With tiered storage, the
// policy's Decision governs instead of the plain windows: LSTH holds the
// instance fully warm only for the (shorter) tiered keep-alive, relying
// on the DRAM-parked artifact to cover the idle distribution's tail.
//
// A deadline that only moves later touches no timer: the armed one fires
// first and onIdle re-arms it at the deadline then. So a warm instance
// serving back to back costs the clock one event per keep-alive, not a
// cancel and a schedule per batch. Only a first spell, or a keep-alive
// the policy shortened, re-arms here.
func (e *Engine) scheduleReclaim(inst *Instance) {
	now := e.clock.Now()
	var keep time.Duration
	if e.storageActive() {
		keep = inst.Fn.Policy.Decide(now).KeepAlive
	} else {
		_, keep = inst.Fn.Policy.Windows(now)
	}
	inst.idleUntil = now + max(keep, 0)
	if inst.reclaim.Pending() && inst.reclaim.At() <= inst.idleUntil {
		return
	}
	inst.reclaim.Cancel()
	inst.reclaim = e.clock.ScheduleAt(inst.idleUntil, inst.onIdle)
}

// failServer marks a server down and kills every instance hosted on it:
// in-flight batches are lost (their requests drop), queued requests drop,
// and the next autoscaler tick re-schedules the lost capacity elsewhere.
func (e *Engine) failServer(id int) {
	e.cfg.Cluster.SetDown(id, true)
	for _, f := range e.fns {
		// Collect first: Reclaim mutates the pool.
		var doomed []*Instance
		for _, inst := range f.Instances() {
			if inst.Server == id {
				doomed = append(doomed, inst)
			}
		}
		for _, inst := range doomed {
			e.Reclaim(inst)
		}
	}
}

// schedulePrewarm arms the function's pre-warming window after it went
// fully idle: the image is re-loaded `prewarm` later and stays available
// for `keepalive`, so launches within that window skip the cold start.
// Fixed keep-alive policies never pre-warm — once the instance is gone,
// the next launch is cold (the behavior of OpenFaaS and BATCH).
func (e *Engine) schedulePrewarm(f *FunctionState) {
	if _, fixed := f.Policy.(coldstart.Fixed); fixed {
		return
	}
	now := e.clock.Now()
	prewarm, keepalive := f.Policy.Windows(now)
	f.prewarm.Cancel()
	f.prewarm = e.clock.ScheduleAfter(prewarm, func() {
		f.prewarmedUntil = e.clock.Now() + keepalive
	})
}
