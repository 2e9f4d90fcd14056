package sim

// lifecycle.go is the request lifecycle: arrival → routing → batch
// queue → submission → completion, plus backlog expiry and chain
// forwarding. Policy decisions (batch timeout, SLO-aware admission
// projection) come from the shared internal/runtime layer; metric
// recording flows through the engine's lifecycle observers (only a
// chain's end-to-end recorder is engine state: no event carries it).

import (
	"time"

	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
)

// NewRequest returns a request arriving now, for Inject. Answered
// requests are recycled on a free list (as simclock recycles events), so
// the steady state allocates none.
func (e *Engine) NewRequest() *Request {
	var r *Request
	if n := len(e.freeReqs); n > 0 {
		r = e.freeReqs[n-1]
		e.freeReqs = e.freeReqs[:n-1]
	} else {
		//lint:ignore hotalloc free-list miss: only until the list covers the requests in flight
		r = new(Request)
	}
	now := e.clock.Now()
	r.Arrive, r.ChainStart = now, now
	return r
}

// noteArrival is the front-door bookkeeping of one arrival at f.
func (e *Engine) noteArrival(f *FunctionState) {
	now := e.clock.Now()
	f.rate.Observe(now)
	e.rates.PlaneObserve(now)
	f.ledger.RequestArrived(now)
	e.obs.RequestArrived(f.Spec.Name, now)
	if f.haveArrival {
		f.Policy.RecordIdle(now-f.lastArrival, now)
	}
	f.lastArrival = now
	f.haveArrival = true
}

// Inject delivers a request (external arrival or chain forward) to f at
// the current time. The engine owns req from here on.
func (e *Engine) Inject(f *FunctionState, req *Request) {
	e.noteArrival(f)
	inst := e.ctrl.Route(e, f, req)
	if inst == nil {
		if rej, ok := e.ctrl.(Rejector); ok && rej.RejectOnSaturation() {
			e.drop(f, req, false)
			return
		}
		f.Pending = append(f.Pending, req)
		return
	}
	e.Enqueue(inst, req)
}

// drop publishes a drop, charges it to the end-to-end recorder of the
// chain f belongs to (the user never got an answer, wherever along the
// pipeline the request died; warm-up excludes it as it excludes the
// tail's served samples in onBatchComplete) and finishes the request.
func (e *Engine) drop(f *FunctionState, req *Request, shed bool) {
	now := e.clock.Now()
	f.ledger.RequestDropped(now)
	e.obs.RequestDropped(f.Spec.Name, now)
	if shed {
		f.ledger.RequestShed(now)
		e.obs.RequestShed(f.Spec.Name, now)
	}
	tail := f
	for tail.forwardTo != nil {
		tail = tail.forwardTo
	}
	if tail.ChainRecorder != nil && now >= e.cfg.Warmup {
		tail.ChainRecorder.Drop()
	}
	e.finish(req, Outcome{Shed: shed})
}

// finish is the one exit of every request: the completion hook hears the
// outcome and the request is recycled. Nothing may touch req afterwards.
func (e *Engine) finish(req *Request, o Outcome) {
	if e.done != nil {
		e.done(req, o)
	}
	e.freeReqs = append(e.freeReqs, req)
}

// Shed drops req as refused by admission control: RequestShed follows
// RequestDropped and the completion hook sees Outcome.Shed. Controllers
// shed backlog they cannot launch capacity for.
func (e *Engine) Shed(f *FunctionState, req *Request) { e.drop(f, req, true) }

// Refuse records an arrival the front door turns away before routing
// (the gateway's per-function queue bound).
func (e *Engine) Refuse(f *FunctionState) {
	e.noteArrival(f)
	e.Shed(f, e.NewRequest())
}

// expirePending gives up on backlog held past the horizon: by default
// the SLO, and the request drops (the simulated caller has timed out); a
// BacklogHolder sets its own, and the request is shed.
func (e *Engine) expirePending(f *FunctionState) {
	now := e.clock.Now()
	hold := f.Spec.SLO
	holder, shed := e.ctrl.(BacklogHolder)
	if shed {
		hold = holder.BacklogHold(f)
	}
	keep := f.Pending[:0]
	for _, r := range f.Pending {
		if now-r.Arrive > hold {
			e.drop(f, r, shed)
			continue
		}
		keep = append(keep, r)
	}
	f.Pending = keep
}

// Enqueue offers a request to an instance's batch queue, handling drops,
// SLO-aware admission, batch-full submission and timeout scheduling.
func (e *Engine) Enqueue(inst *Instance, req *Request) {
	now := e.clock.Now()
	if a, ok := e.ctrl.(Admitter); ok && a.SLOAwareAdmission() {
		// Projected completion: batches queued ahead of this request plus
		// the batch in flight, each costing the predicted execution time.
		var coldWait time.Duration
		if !inst.Ready && inst.ReadyAt > now {
			coldWait = inst.ReadyAt - now
		}
		if inst.Fn.batch.ProjectedViolation(inst.Queue.Len(), inst.Cand.B, inst.Busy,
			inst.Cand.TExec, now-req.Arrive, coldWait) {
			e.drop(inst.Fn, req, false)
			return
		}
	}
	accepted, full := inst.Queue.Add(req, now)
	if !accepted {
		e.drop(inst.Fn, req, false)
		return
	}
	e.obs.RequestEnqueued(inst.Fn.Spec.Name, inst.ID, now)
	inst.reclaim.Cancel()
	if full {
		e.trySubmit(inst)
	}
	e.armTimeout(inst)
}

// armTimeout (re)schedules the batch-timeout event for the head batch.
func (e *Engine) armTimeout(inst *Instance) {
	deadline, ok := inst.Queue.Deadline()
	if !ok {
		return
	}
	if inst.timeout.Pending() && inst.timeout.At() == deadline {
		return
	}
	inst.timeout.Cancel()
	if deadline < e.clock.Now() {
		deadline = e.clock.Now()
	}
	inst.timeout = e.clock.ScheduleAt(deadline, inst.onTimeout)
}

// trySubmit submits the head batch if the instance can execute now and
// the batch is due (full, or past its deadline).
func (e *Engine) trySubmit(inst *Instance) {
	now := e.clock.Now()
	if !inst.Ready || inst.Busy || inst.Queue.Len() == 0 {
		return
	}
	deadline, _ := inst.Queue.Deadline()
	if inst.Queue.Len() < inst.Cand.B && deadline > now {
		e.armTimeout(inst)
		return
	}
	batch, _, ok := inst.Queue.DrainInto(inst.batch, now)
	if !ok {
		return
	}
	inst.Busy = true
	inst.batch, inst.submitted = batch, now
	inst.texec = e.execTime(inst, len(batch))
	inst.Fn.ledger.BatchSubmitted(len(batch), now)
	e.obs.BatchSubmitted(inst.Fn.Spec.Name, inst.ID, len(batch), now)
	inst.done = e.clock.ScheduleAfter(inst.texec, inst.onDone)
}

// execTime draws the execution time of a batch of n on inst, as
// Model.ExecTime(n, inst.Cand.Res, DefaultExecOptions(e.rng)) does: the
// noise-free time, which the instance works out once per batch size,
// under this execution's jitter, one draw from e.rng.
func (e *Engine) execTime(inst *Instance, n int) time.Duration {
	base := inst.baseExec[n]
	if base == 0 {
		base = inst.Fn.Spec.Model.ExecTime(n, inst.Cand.Res, model.DefaultExecOptions(nil))
		inst.baseExec[n] = base
	}
	return model.DefaultExecOptions(e.rng).Jitter(base)
}

// onBatchComplete answers the batch inst was executing and moves the
// instance on. It runs once per batch and must not allocate.
//
//lint:hotpath
func (e *Engine) onBatchComplete(inst *Instance) {
	f, batch, submittedAt, texec := inst.Fn, inst.batch, inst.submitted, inst.texec
	var otpDelay time.Duration
	if d, ok := e.ctrl.(DispatchDelayer); ok {
		otpDelay = d.DispatchDelay()
	}
	inWarmup := e.clock.Now() < e.cfg.Warmup
	for _, req := range batch {
		var cold, queue time.Duration
		if req.Arrive < inst.ReadyAt {
			cold = inst.ReadyAt - req.Arrive
			queue = submittedAt - inst.ReadyAt
		} else {
			queue = submittedAt - req.Arrive
		}
		if queue < 0 {
			queue = 0
		}
		sample := metrics.Sample{Cold: cold, Queue: queue + otpDelay, Exec: texec}
		f.ledger.RequestServed(sample, e.clock.Now())
		e.obs.RequestServed(f.Spec.Name, sample, e.clock.Now())
		switch {
		case f.forwardTo != nil:
			// Chain hop: the request continues at the next stage with its
			// original chain start preserved.
			hop := e.NewRequest()
			hop.ChainStart = req.ChainStart
			e.Inject(f.forwardTo, hop)
		case f.ChainRecorder != nil && !inWarmup:
			// Chain tail: account the end-to-end latency as pure queueing
			// plus this stage's execution (the decomposition upstream is
			// already recorded per stage).
			total := e.clock.Now() - req.ChainStart
			f.ChainRecorder.Observe(metrics.Sample{Queue: total - texec, Exec: texec})
		}
		e.finish(req, Outcome{Served: true, Sample: sample, Batch: len(batch), Instance: inst.ID})
	}
	inst.Busy = false
	// Capacity just freed: re-offer any backlog immediately (sub-second
	// SLOs cannot wait for the next autoscaler tick — chain stages in
	// particular receive whole upstream batches at one instant).
	if len(f.Pending) > 0 {
		e.FlushPending(f)
	}
	if inst.Queue.Len() > 0 {
		e.trySubmit(inst)
		e.armTimeout(inst)
		return
	}
	if inst.Draining {
		e.Reclaim(inst)
		return
	}
	e.scheduleReclaim(inst)
}

// FlushPending re-offers backlog requests to the controller, typically
// right after a scale-out or a freed execution slot. Requests whose SLO
// already expired are dropped first — the client has timed out, so
// serving them would only burn capacity on a guaranteed violation.
func (e *Engine) FlushPending(f *FunctionState) {
	if len(f.Pending) == 0 {
		return
	}
	e.expirePending(f)
	pending, routed := f.Pending, 0
	for _, r := range pending {
		inst := e.ctrl.Route(e, f, r)
		if inst == nil {
			break
		}
		e.Enqueue(inst, r)
		routed++
	}
	// Only Inject appends to the backlog, and nothing Route or Enqueue
	// calls injects before it returns (TestFlushPendingCompactsInPlace), so
	// the unrouted remainder moves to the front of the array it is in.
	f.Pending = pending[:copy(pending, pending[routed:])]
}
