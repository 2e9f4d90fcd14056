package sim

// lifecycle.go is the request lifecycle: arrival → routing → batch
// queue → submission → completion, plus backlog expiry and chain
// forwarding. Policy decisions (batch timeout, SLO-aware admission
// projection) come from the shared internal/runtime layer; metric
// recording flows through the engine's lifecycle observers.

import (
	"time"

	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
)

func (e *Engine) onArrival(f *FunctionState) {
	now := e.clock.Now()
	req := &Request{Arrive: now, ChainStart: now}
	e.inject(f, req)
}

// inject delivers a request (external arrival or chain forward) to f.
func (e *Engine) inject(f *FunctionState, req *Request) {
	now := e.clock.Now()
	f.rate.Observe(now)
	e.rates.PlaneObserve(now)
	e.obs.RequestArrived(f.Spec.Name, now)
	if f.haveArrival && f.Policy != nil {
		f.Policy.RecordIdle(now-f.lastArrival, now)
	}
	f.lastArrival = now
	f.haveArrival = true

	inst := e.ctrl.Route(e, f, req)
	if inst == nil {
		if rej, ok := e.ctrl.(Rejector); ok && rej.RejectOnSaturation() {
			e.dropRequest(f)
			return
		}
		f.Pending = append(f.Pending, req)
		return
	}
	e.Enqueue(inst, req)
}

// dropRequest publishes a drop; the metrics observer charges the
// function's recorder and, for chained functions, the chain tail's
// end-to-end recorder (the user never got an answer, wherever along the
// pipeline the request died).
func (e *Engine) dropRequest(f *FunctionState) {
	e.obs.RequestDropped(f.Spec.Name, e.clock.Now())
}

// expirePending drops backlog requests that already blew their SLO: the
// caller would have timed out.
func (e *Engine) expirePending(f *FunctionState) {
	now := e.clock.Now()
	keep := f.Pending[:0]
	for _, r := range f.Pending {
		if now-r.Arrive > f.Spec.SLO {
			e.dropRequest(f)
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
			e.dropRequest(inst.Fn)
			return
		}
	}
	accepted, full := inst.Queue.Add(req, now)
	if !accepted {
		e.dropRequest(inst.Fn)
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
	inst.timeout = e.clock.ScheduleAt(deadline, func() { e.trySubmit(inst) })
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
	batch, _, ok := inst.Queue.Drain(now)
	if !ok {
		return
	}
	inst.Busy = true
	texec := inst.Fn.Spec.Model.ExecTime(len(batch), inst.Cand.Res, model.ExecOptions{
		Contention: e.cfg.Contention,
		NoiseSD:    e.cfg.ExecNoiseSD,
		Rng:        e.rng,
	})
	e.obs.BatchSubmitted(inst.Fn.Spec.Name, inst.ID, len(batch), now)
	e.clock.ScheduleAfter(texec, func() {
		e.onBatchComplete(inst, batch, now, texec)
	})
}

func (e *Engine) onBatchComplete(inst *Instance, batch []*Request, submittedAt time.Duration, texec time.Duration) {
	f := inst.Fn
	if inst.lostAt > 0 && inst.lostAt >= submittedAt {
		// The server failed while this batch was executing: the work is
		// lost and its requests count as drops.
		for range batch {
			e.dropRequest(f)
		}
		return
	}
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
		e.obs.RequestServed(f.Spec.Name, metrics.Sample{Cold: cold, Queue: queue + otpDelay, Exec: texec}, e.clock.Now())
		switch {
		case f.forwardTo != nil:
			// Chain hop: the request continues at the next stage with its
			// original chain start preserved.
			e.inject(f.forwardTo, &Request{Arrive: e.clock.Now(), ChainStart: req.ChainStart})
		case f.ChainRecorder != nil && !inWarmup:
			// Chain tail: account the end-to-end latency as pure queueing
			// plus this stage's execution (the decomposition upstream is
			// already recorded per stage).
			total := e.clock.Now() - req.ChainStart
			f.ChainRecorder.Observe(metrics.Sample{Queue: total - texec, Exec: texec})
		}
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
	pending := f.Pending
	f.Pending = nil
	for i, r := range pending {
		inst := e.ctrl.Route(e, f, r)
		if inst == nil {
			f.Pending = append(f.Pending, pending[i:]...)
			break
		}
		e.Enqueue(inst, r)
	}
}
