package baselines

import (
	"time"

	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
)

// batchLadder is the proportional resource menu BATCH may configure.
// BATCH's profiles are memory-centric (its AWS Lambda heritage: CPU power
// proportional to memory); the INFless authors extended them "with CPU
// and GPU allocations", which still yields a coarse proportional ladder
// rather than free-form packing — Figure 13(c) shows BATCH using only
// three (b,c,g) configurations.
var batchLadder = []perf.Resources{{CPU: 2, GPU: 1}, {CPU: 4, GPU: 2}, {CPU: 8, GPU: 4}, {CPU: 16, GPU: 8}}

// BatchSys is the BATCH controller (Ali et al., SC'20), the paper's
// state-of-the-art comparison: adaptive batching implemented *on top of*
// the serverless platform. Per the paper's characterization
// (Table 3 and Observation 5) it:
//
//   - aggregates requests into uniform batches chosen adaptively from its
//     function profiles to maximize cost-efficiency under the SLO —
//     without visibility into the platform's queuing or placement;
//   - uses uniform scaling: all concurrently launched instances of a
//     function share one configuration;
//   - places instances first-fit (it cannot influence placement from
//     outside the platform) and relies on the fixed keep-alive to scale
//     in.
type BatchSys struct {
	pred scheduler.Predictor
}

// NewBatchSys creates the BATCH controller.
func NewBatchSys() *BatchSys { return &BatchSys{pred: defaultPredictor()} }

// Name implements sim.Controller.
func (b *BatchSys) Name() string { return "batch" }

// SLOAwareAdmission implements sim.Admitter: the OTP buffer layer knows
// its own occupancy, batch size and profiled execution times, so it can
// reject requests whose projected completion misses the SLO. What it
// cannot see is the platform's internal scheduling delay (DispatchDelay)
// or influence placement and per-instance configurations — the gaps
// INFless's native design closes.
func (b *BatchSys) SLOAwareAdmission() bool { return true }

// DispatchDelay implements sim.DispatchDelayer: the OTP buffer layer is
// deployed on a separate server in front of the platform, so every
// request pays an extra network/dispatch hop that the platform-internal
// scheduler cannot account for.
func (b *BatchSys) DispatchDelay() time.Duration { return 15 * time.Millisecond }

type batchState struct {
	menu    []scheduler.Candidate
	current scheduler.Candidate
	valid   bool
}

// Init implements sim.Controller.
func (b *BatchSys) Init(e *sim.Engine) {
	for _, f := range e.Functions() {
		f.SetCtrlState(&batchState{menu: b.buildMenu(f)})
	}
}

// buildMenu profiles the proportional ladder for one function: every
// <batch, ladder-rung> pair that can meet the SLO.
func (b *BatchSys) buildMenu(f *sim.FunctionState) []scheduler.Candidate {
	var menu []scheduler.Candidate
	for _, bs := range profiler.DefaultBatches {
		if bs > f.Spec.MaxBatch {
			continue
		}
		for _, res := range batchLadder {
			// BATCH's profiles couple batch size to the instance size (its
			// AWS heritage: larger batches need larger memory configs, and
			// CPU scales with memory). A rung supports batches up to twice
			// its core count — so large batches force large instances,
			// which is why BATCH over-provisions during load rises
			// (Figure 14) and uses only a few coarse configs (Figure 13c).
			if bs > 2*res.CPU {
				continue
			}
			texec := b.pred.Predict(f.Spec.Model, bs, res)
			bounds, err := batching.RateBounds(texec, f.Spec.SLO, bs)
			if err != nil {
				continue
			}
			menu = append(menu, scheduler.Candidate{B: bs, Res: res, TExec: texec, Bounds: bounds})
		}
	}
	return menu
}

// chooseUniform picks BATCH's configuration for the current aggregate
// rate: its adaptive-batching cost model selects the most cost-efficient
// saturable <batch, rung> pair (maximum RPS per dollar of resources),
// preferring the larger batch among near-ties ("BATCH always prefers a
// larger batch", Section 5.2). One size fits all instances (uniform
// scaling).
func (b *BatchSys) chooseUniform(f *sim.FunctionState, r float64, fits func(scheduler.Candidate) bool) (scheduler.Candidate, bool) {
	st := f.CtrlState().(*batchState)
	var best scheduler.Candidate
	bestEff := -1.0
	found := false
	for _, c := range st.menu {
		if c.B > 1 && r < c.Bounds.RLow {
			continue
		}
		if fits != nil && !fits(c) {
			continue // no server can host this rung right now
		}
		eff := c.Bounds.RUp / c.Res.Weighted()
		better := eff > bestEff*1.02 || (eff > bestEff*0.98 && c.B > best.B)
		if better {
			if eff > bestEff {
				bestEff = eff
			}
			best = c
			found = true
		}
	}
	return best, found
}

// Route implements the OTP buffer: requests fill one forming batch at a
// time. The fullest non-complete queue receives the request, emulating a
// single front buffer that dispatches whole batches to instances.
func (b *BatchSys) Route(e *sim.Engine, f *sim.FunctionState, r *sim.Request) *sim.Instance {
	var best *sim.Instance
	bestLen := -1
	for _, inst := range f.Instances() {
		if inst.Draining || !inst.CanAccept() {
			continue
		}
		// Prefer the instance whose forming batch is fullest, so batches
		// saturate quickly (OTP aggregates centrally).
		l := inst.Queue.Len() % inst.Cand.B
		if inst.Queue.Len() > 0 && l == 0 {
			l = inst.Cand.B // a just-completed batch boundary: full
		}
		if l > bestLen {
			bestLen = l
			best = inst
		}
	}
	return best
}

// Tick implements uniform scaling: compare aggregate demand with the
// aggregate capacity of live instances and launch uniform instances for
// the gap, first-fit.
func (b *BatchSys) Tick(e *sim.Engine, f *sim.FunctionState) {
	st := f.CtrlState().(*batchState)
	now := e.Now()
	demand := f.RateEstimate(now) + float64(len(f.Pending))/sim.ScaleInterval.Seconds()

	var capacity float64
	for _, inst := range f.Instances() {
		if !inst.Draining {
			capacity += inst.Cand.Bounds.RUp
		}
	}
	if demand > capacity {
		cand, ok := b.chooseUniform(f, demand, func(c scheduler.Candidate) bool {
			_, fit := firstFit(e.Cluster(), c.Res, f.Spec.Model.MemoryMB)
			return fit
		})
		if ok {
			st.current, st.valid = cand, true
			need := demand - capacity
			for need > 0 {
				server, fit := firstFit(e.Cluster(), cand.Res, f.Spec.Model.MemoryMB)
				if !fit {
					break
				}
				inst := e.Launch(f, cand, server)
				if inst == nil {
					break
				}
				need -= cand.Bounds.RUp
			}
		}
	}
	e.FlushPending(f)
}
