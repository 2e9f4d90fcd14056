// Package core implements the INFless control plane (Figure 4): the
// non-uniform auto-scaling engine, the batch-aware request dispatcher and
// the cold-start manager, wired together as a sim.Controller.
//
// Per Section 3 the controller:
//
//   - builds a COP-based latency predictor for each deployed function and
//     derives its feasible <batchsize, CPU, GPU> candidate set once;
//   - dispatches requests to instances with a credit-based weighted
//     scheme that keeps each instance's arrival rate inside its
//     [r_low, r_up] window (Eq. 1), with aggregate control damped by
//     alpha = 0.8 (Section 3.2's cases i-iii);
//   - scales out by running Algorithm 1 over the residual RPS, packing
//     new non-uniform instances onto servers by the resource-efficiency
//     metric e_ij (Eq. 10);
//   - scales in by retiring instances the rate controller marks
//     releasable, and manages images with the LSTH policy (Section 3.5).
package core

import (
	"math"
	"time"

	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
)

// Options configure the INFless controller.
type Options struct {
	// Predictor estimates execution times; nil builds the default COP
	// predictor (10% safety offset) over a freshly profiled operator DB.
	Predictor scheduler.Predictor
	// Sched carries the configuration grids and the ablation switches
	// (ForceBatchOne = BB ablation, DisableRS = RS ablation).
	Sched scheduler.Options
	// Alpha is the dispatch damping constant (default 0.8).
	Alpha float64
	// LSTH configures the default cold-start policy assigned to
	// functions that don't bring their own.
	LSTH coldstart.LSTHOptions
	// PredictionInflate > 1 reproduces the OP ablation (OP1.5 = 1.5,
	// OP2 = 2.0) when the default predictor is built internally.
	PredictionInflate float64
}

// Controller is the INFless control plane.
type Controller struct {
	opts Options
	pred scheduler.Predictor
}

// New creates an INFless controller.
func New(opts Options) *Controller {
	if opts.Alpha == 0 {
		opts.Alpha = batching.DefaultAlpha
	}
	pred := opts.Predictor
	if pred == nil {
		p := profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions()))
		if opts.PredictionInflate > 0 {
			p.InflateFactor = opts.PredictionInflate
		}
		pred = scheduler.NewPredictorCache(p)
	}
	return &Controller{opts: opts, pred: pred}
}

// Name implements sim.Controller.
func (c *Controller) Name() string { return "infless" }

// SLOAwareAdmission implements sim.Admitter: the native design sees its
// batch queues, so requests whose projected completion already misses the
// SLO are rejected up front rather than served late.
func (c *Controller) SLOAwareAdmission() bool { return true }

// Init implements sim.Controller: assigns LSTH policies and pre-builds
// scheduling plans.
func (c *Controller) Init(e *sim.Engine) {
	for _, f := range e.Functions() {
		if f.Policy == nil {
			f.Policy = coldstart.NewLSTH(c.opts.LSTH)
		}
		f.Plan(c.pred, c.opts.Sched)
		f.SetCtrlState(&fnState{})
	}
}

// fnState is the controller-private dispatch state.
type fnState struct {
	creditsAt time.Duration
}

// Route implements sim.Controller: credit-based weighted dispatching.
// Each instance accrues credit at its assigned rate; a request consumes
// one credit. This keeps per-instance arrival inside its admission
// window without randomness, and prefers instances closest to their
// upper bound (Figure 6(b): fill instances toward r_up).
func (c *Controller) Route(e *sim.Engine, f *sim.FunctionState, r *sim.Request) *sim.Instance {
	st := f.CtrlState().(*fnState)
	now := e.Now()
	dt := (now - st.creditsAt).Seconds()
	st.creditsAt = now

	var best *sim.Instance
	bestCredit := math.Inf(-1)
	for _, inst := range f.Instances() {
		if dt > 0 {
			cap := inst.Rate // at most one second's worth of burst credit
			if cap < 1 {
				cap = 1
			}
			inst.AddCredit(inst.Rate*dt, cap)
		}
		if inst.Draining || !inst.CanAccept() {
			continue
		}
		if cr := inst.Credit(); cr > bestCredit {
			bestCredit = cr
			best = inst
		}
	}
	// Credits shape the load *distribution* toward each instance's
	// admission window; total admission is bounded by queue capacity
	// (requests are only dropped on over-submission, Figure 6a). So when
	// every instance is over its rate, still route to the least-loaded
	// one rather than stranding the request in the backlog.
	if best == nil {
		return nil // no instance can accept: hold for the autoscaler
	}
	best.AddCredit(-1, math.Inf(1))
	return best
}

// Tick implements sim.Controller: the auto-scaling engine.
func (c *Controller) Tick(e *sim.Engine, f *sim.FunctionState) {
	now := e.Now()
	r := f.RateEstimate(now)
	// Backlogged requests need capacity within this tick on top of the
	// steady-state rate.
	backlog := float64(len(f.Pending)) / sim.ScaleInterval.Seconds()
	demand := r + backlog

	bounds := make([]batching.Bounds, len(f.Instances()))
	for i, inst := range f.Instances() {
		if inst.Draining {
			bounds[i] = batching.Bounds{} // contributes no capacity
			continue
		}
		bounds[i] = inst.Cand.Bounds
	}
	plan := batching.AllocateRates(bounds, demand, c.opts.Alpha)

	for i, rate := range plan.Rates {
		f.Instances()[i].Rate = rate
	}
	// Collect pointers first: Retire can reclaim immediately, which
	// mutates f.Instances and would invalidate the release indices.
	var release []*sim.Instance
	for _, idx := range plan.Release {
		if inst := f.Instances()[idx]; !inst.Draining {
			release = append(release, inst)
		}
	}
	for _, inst := range release {
		e.Retire(inst)
	}
	// Sub-RPS residuals are estimation noise; launching for them would
	// churn instances every tick.
	if plan.ResidualRPS > 1 {
		target := runtime.ScaleAheadTarget(plan.ResidualRPS, demand, c.opts.Alpha)
		decisions, _ := f.Plan(c.pred, c.opts.Sched).Schedule(target, e.Cluster())
		for _, d := range decisions {
			e.LaunchPlaced(f, d)
		}
	}
	e.FlushPending(f)
}
