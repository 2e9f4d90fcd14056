package gateway

// controller.go is the gateway's policy, as a sim.Controller: dispatch
// to the instance with the highest saturation rate r_up, scale out
// reactively one launch at a time, hold overflow in the engine's backlog
// meanwhile. It is kept (instead of core.Controller, a one-line swap in
// newServer) only because the repository's frozen gateway benchmark
// checks its outcome: one live instance per function, nothing dropped.

import (
	"time"

	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/sim"
)

// launchDebounce is how long (in model time) an overflow must persist
// before the gateway sizes and launches an instance. Launching at the
// first overflowing request would size the instance from a near-empty
// estimator and lock a burst into batch-of-1 capacity; one fifth of the
// simulator's autoscaler tick reacts fast while a request wave registers.
const launchDebounce = 200 * time.Millisecond

// reactive is the controller; hold is one wall second in model time.
type reactive struct {
	hold time.Duration
}

func (c *reactive) Name() string                         { return "gateway" }
func (c *reactive) Init(*sim.Engine)                     {}
func (c *reactive) Tick(*sim.Engine, *sim.FunctionState) {}

// BacklogHold implements sim.BacklogHolder: a real server cannot
// un-answer, so it serves late and lets the violation show — but a held
// request is shed (429) after four SLOs plus a wall second.
func (c *reactive) BacklogHold(f *sim.FunctionState) time.Duration {
	return 4*f.Spec.SLO + c.hold
}

// Route prefers the instance with the highest r_up that has queue room —
// a greedy approximation of INFless non-uniform dispatching: load
// concentrates on big-batch instances, undersized ones from the startup
// ramp starve and idle out. With no room anywhere the request waits in
// the backlog and, unless an instance is warming already (one launch at
// a time: no stampede), a scale-out is armed.
func (c *reactive) Route(e *sim.Engine, f *sim.FunctionState, _ *sim.Request) *sim.Instance {
	var best *sim.Instance
	warming := false
	for _, inst := range f.Instances() {
		warming = warming || !inst.Ready
		if inst.CanAccept() && (best == nil || inst.Cand.Bounds.RUp > best.Cand.Bounds.RUp) {
			best = inst
		}
	}
	if best == nil && !warming {
		c.armLaunch(e, f)
	}
	return best
}

// armLaunch schedules the scale-out one debounce from the first
// overflow, so the demand estimate has seen the whole request wave.
func (c *reactive) armLaunch(e *sim.Engine, f *sim.FunctionState) {
	if st := f.CtrlState().(*function); !st.launch.Pending() {
		st.launch = e.Clock().ScheduleAfter(launchDebounce, func() { c.scaleOut(e, f) })
	}
}

// scaleOut launches one more instance via Algorithm 1, sized by the
// estimator's current view: nothing running could place the backlog, so
// the whole demand is residual, with the alpha headroom of Section 3.2.
// A full cluster sheds the backlog.
func (c *reactive) scaleOut(e *sim.Engine, f *sim.FunctionState) {
	if len(f.Pending) == 0 {
		return // the overflow found room meanwhile
	}
	rate := f.Demand(e.Now())
	target := runtime.ScaleAheadTarget(rate, rate, runtime.DefaultAlpha)
	decisions, _ := f.CtrlState().(*function).plan.Schedule(target, e.Cluster())
	if len(decisions) == 0 {
		for _, req := range f.Pending {
			e.Shed(f, req)
		}
		f.Pending = f.Pending[:0]
		return
	}
	e.LaunchPlaced(f, decisions[0])
	e.FlushPending(f)
}
