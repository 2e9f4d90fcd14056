package sim

// live.go is the engine's second driver. Run owns time: it generates the
// arrivals, ticks the controller and runs the clock to Duration. A live
// engine is driven from outside — the wall-clock gateway holds one under
// a mutex, runs its clock up to "now" before every call, injects
// requests as they arrive over HTTP and learns each one's fate from the
// completion hook. Everything in between — routing, batch queues,
// timeouts, execution, keep-alive, cold-start pricing — is lifecycle.go
// and instances.go, unchanged.

import (
	"slices"

	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/simclock"
)

// Outcome is how one request ended, as told to the completion hook. Only
// Shed can be set when Served is false.
type Outcome struct {
	Served   bool           // false: dropped (rejected, expired, or lost with its instance)
	Shed     bool           // dropped by admission control (Engine.Shed)
	Sample   metrics.Sample // latency decomposition
	Batch    int            // size of the batch it ran in
	Instance int            // id of the instance that ran it
}

// OnDone installs the completion hook: fn hears every request's outcome
// exactly once — served or dropped — on the event loop, just before the
// request is recycled (it must not keep req).
func (e *Engine) OnDone(fn func(req *Request, o Outcome)) { e.done = fn }

// Start readies the engine without running it: chains linked, controller
// initialised, opening allocation published. Run begins with it; a live
// driver calls it once and from then on moves Clock itself, between
// NewRequest + Inject, AddFunction and RemoveFunction calls. A live
// engine has no Tick, no arrival streams and no end: its controller acts
// from Route and from events it schedules on Clock.
func (e *Engine) Start() {
	e.resolveChains()
	e.ctrl.Init(e)
	for _, f := range e.fns {
		defaultPolicy(f)
	}
	e.started = true
	e.allocationChanged(e.clock.Now())
}

// Clock is the engine's event queue, for a live driver to run (RunUntil,
// Next) and a tickless controller to schedule on.
func (e *Engine) Clock() *simclock.Clock { return e.clock }

// RemoveFunction undeploys f from a live engine: its instances are
// reclaimed and every request it holds — executing, queued or backlogged
// — is dropped now, so each is answered once and nothing of f stays on
// the clock. f must not be part of a chain.
//
//lint:coldpath
func (e *Engine) RemoveFunction(f *FunctionState) {
	for len(f.instances) > 0 {
		e.Reclaim(f.instances[0])
	}
	for _, req := range f.Pending {
		e.drop(f, req, false)
	}
	f.Pending = nil
	f.prewarm.Cancel()
	e.rates.Remove(f.Spec.Name)
	delete(e.byName, f.Spec.Name)
	e.fns = slices.DeleteFunc(e.fns, func(g *FunctionState) bool { return g == f })
}
