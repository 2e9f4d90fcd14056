// Package baselines implements the comparison systems of the paper's
// evaluation (Table 3):
//
//   - OpenFaaS⁺ — the original OpenFaaS enhanced with GPU support: no
//     batching (one-to-one request mapping), a uniform instance
//     configuration (2 CPU cores + 10% of a GPU), uniform scaling, and a
//     fixed 300-second keep-alive;
//   - BATCH — the state-of-the-art On-Top-of-Platform design: adaptive
//     batching in a buffer layer in front of the platform, uniform
//     instance configurations, no awareness of the platform's internal
//     scheduling, fixed keep-alive;
//   - a Lambda-style analytic model (lambda.go) for the Section 2
//     motivation study (proportional CPU-memory allocation).
package baselines

import (
	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
)

// defaultPredictor builds the shared COP predictor used by baselines to
// derive execution-time estimates (BATCH has function profiles too; the
// paper extends them with CPU/GPU allocations for fairness).
func defaultPredictor() scheduler.Predictor {
	return scheduler.NewPredictorCache(profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions())))
}

// firstFit returns the lowest-numbered server that can host the
// allocation.
func firstFit(cl *cluster.Cluster, res perf.Resources, memMB int) (int, bool) {
	id := -1
	cl.EachServer(func(s *cluster.Server) bool {
		if !s.Down() && s.Free.Fits(res) && s.MemFreeMB >= memMB {
			id = s.ID
			return false
		}
		return true
	})
	return id, id != -1
}

// The OpenFaaS⁺ setting of the paper's comparison.
var ofpResources = perf.Resources{CPU: 2, GPU: 1} // 2 CPU cores + 10% of a GPU's SMs

// ofpMaxConcurrentColdStarts bounds how many instances of one function
// may be starting at once (OpenFaaS scales through the Kubernetes
// deployment controller, which rolls replicas out gradually rather than
// spawning one per queued request).
const ofpMaxConcurrentColdStarts = 8

// OpenFaaSPlus is the enhanced-OpenFaaS baseline controller.
type OpenFaaSPlus struct {
	pred scheduler.Predictor
}

// NewOpenFaaSPlus creates the OpenFaaS⁺ controller.
func NewOpenFaaSPlus() *OpenFaaSPlus { return &OpenFaaSPlus{pred: defaultPredictor()} }

// Name implements sim.Controller.
func (o *OpenFaaSPlus) Name() string { return "openfaas+" }

// RejectOnSaturation implements sim.Rejector: the OpenFaaS gateway
// returns 503 when no replica can take a request, rather than holding an
// unbounded backlog. Under overload this sheds load immediately, so the
// requests that are served remain fresh.
func (o *OpenFaaSPlus) RejectOnSaturation() bool { return true }

// candidateFor derives the uniform batch-1 candidate for a function.
func (o *OpenFaaSPlus) candidateFor(f *sim.FunctionState) scheduler.Candidate {
	texec := o.pred.Predict(f.Spec.Model, 1, ofpResources)
	bounds, err := batching.RateBounds(texec, f.Spec.SLO, 1)
	if err != nil {
		// The fixed configuration cannot meet the SLO; the baseline still
		// runs (and violates), with capacity bounded by execution speed.
		bounds = batching.Bounds{RUp: 1 / texec.Seconds()}
	}
	return scheduler.Candidate{B: 1, Res: ofpResources, TExec: texec, Bounds: bounds}
}

// Init implements sim.Controller.
func (o *OpenFaaSPlus) Init(e *sim.Engine) {
	for _, f := range e.Functions() {
		f.SetCtrlState(o.candidateFor(f))
	}
}

// Route implements the one-to-one mapping policy: each request occupies
// one instance invocation. Warm idle instances are reused; otherwise a
// new instance is launched (Observation 4: excessive instances under
// bursts).
func (o *OpenFaaSPlus) Route(e *sim.Engine, f *sim.FunctionState, r *sim.Request) *sim.Instance {
	// Reuse: a ready instance with an empty queue that is not executing.
	for _, inst := range f.Instances() {
		if inst.Ready && !inst.Busy && !inst.Draining && inst.Queue.Len() == 0 {
			return inst
		}
	}
	// An instance still cold-starting with room can absorb the request
	// (it was launched for a previous arrival of this burst).
	starting := 0
	var startingWithRoom *sim.Instance
	for _, inst := range f.Instances() {
		if inst.Ready || inst.Draining {
			continue
		}
		starting++
		if startingWithRoom == nil && inst.CanAccept() {
			startingWithRoom = inst
		}
	}
	if startingWithRoom != nil {
		return startingWithRoom
	}
	if starting >= ofpMaxConcurrentColdStarts {
		return nil // scale-up rate limit: wait for replicas to come up
	}
	cand := f.CtrlState().(scheduler.Candidate)
	server, ok := firstFit(e.Cluster(), cand.Res, f.Spec.Model.MemoryMB)
	if !ok {
		return nil // cluster exhausted; request waits in the backlog
	}
	return e.Launch(f, cand, server)
}

// Tick implements sim.Controller: OpenFaaS⁺ scales reactively per
// request, so the tick only retries the backlog.
func (o *OpenFaaSPlus) Tick(e *sim.Engine, f *sim.FunctionState) {
	e.FlushPending(f)
}
