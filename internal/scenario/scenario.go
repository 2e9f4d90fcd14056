// Package scenario is where every simulated run is built: the figures of
// internal/bench and the facade's Platform.Run (and so cmd/infless-sim)
// describe a run as a Spec, and Run makes its one sim.Engine. A caller's
// conventions, such as how it seeds each function's traffic, are fields
// it sets.
package scenario

import (
	"io"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/baselines"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

// Spec is one simulated run. Run panics on what its callers validate
// away: an unknown system, model, traffic pattern or storage profile.
type Spec struct {
	System     string         // "infless" (or ""), "batch" or "openfaas+"
	INFless    core.Options   // the INFless controller's: Figure 11's ablations, alpha, LSTH gamma
	Controller sim.Controller // when set, serves the run in place of System
	Functions  []Function
	Cluster    cluster.Options // the zero value is the 8-server testbed
	Storage    string          // an artifact.Profile name; "" keeps the scalar cold start
	Seed       int64           // the engine's (execution noise); traffic carries its own
	Duration   time.Duration
	Warmup     time.Duration
	Collector  *telemetry.Collector // when nil, the engine makes its own
	Trace      io.Writer            // when set, receives one JSON line per lifecycle event
}

// Function is one deployed function and its traffic; ForwardTo and
// ChainSLO link a chain's stages (sim.FunctionSpec).
type Function struct {
	Name      string
	Model     string // a model of the zoo (model.Get)
	SLO       time.Duration
	MaxBatch  int // 0 = the model's own
	Artifact  artifact.Spec
	ForwardTo string
	ChainSLO  time.Duration
	Traffic   Traffic
}

// Traffic is one function's arrivals: Trace, or Pattern ("" or
// "constant", else a workload.ByName pattern) at RPS, varied by Seed.
// The zero value sends nothing: a chain's later stages are fed by the
// stage before.
type Traffic struct {
	Pattern string
	RPS     float64
	Seed    int64
	Trace   *workload.Trace
}

// OSVT is the object-and-scene video-tracking application of §5.1:
// detect, read the plate, classify, each under a 200 ms SLO. The caller
// sets the traffic.
func OSVT() []Function {
	return []Function{
		{Name: "osvt-detect", Model: "SSD", SLO: 200 * time.Millisecond},
		{Name: "osvt-license", Model: "MobileNet", SLO: 200 * time.Millisecond},
		{Name: "osvt-classify", Model: "ResNet-50", SLO: 200 * time.Millisecond},
	}
}

// QA is the question-answering robot of §5.1: three text models, each
// under a 50 ms SLO. The caller sets the traffic.
func QA() []Function {
	return []Function{
		{Name: "qa-textcnn", Model: "TextCNN-69", SLO: 50 * time.Millisecond},
		{Name: "qa-lstm", Model: "LSTM-2365", SLO: 50 * time.Millisecond},
		{Name: "qa-dssm", Model: "DSSM-2389", SLO: 50 * time.Millisecond},
	}
}

// Run builds the Spec's engine, runs it and returns its result.
func Run(s Spec) *sim.Result {
	storage, err := artifact.Profile(s.Storage)
	if err != nil {
		panic(err)
	}
	e := sim.New(s.controller(), sim.Config{Cluster: cluster.New(s.Cluster), Seed: s.Seed,
		Duration: s.Duration, Warmup: s.Warmup, Collector: s.Collector, Storage: &storage})
	if s.Trace != nil {
		e.Observe(telemetry.NewTraceWriter(s.Trace))
	}
	for _, fn := range s.Functions {
		e.AddFunction(sim.FunctionSpec{Name: fn.Name, Model: model.MustGet(fn.Model), SLO: fn.SLO,
			Trace: fn.Traffic.trace(s.Duration), MaxBatch: fn.MaxBatch, ForwardTo: fn.ForwardTo,
			ChainSLO: fn.ChainSLO, Artifact: fn.Artifact})
	}
	return e.Run()
}

func (s Spec) controller() sim.Controller {
	switch {
	case s.Controller != nil:
		return s.Controller
	case s.System == "" || s.System == "infless":
		return core.New(s.INFless)
	case s.System == "batch":
		return baselines.NewBatchSys()
	case s.System == "openfaas+":
		return baselines.NewOpenFaaSPlus()
	}
	panic("scenario: unknown system " + s.System)
}

// trace is the arrival-rate series over a run of length dur.
func (t Traffic) trace(dur time.Duration) *workload.Trace {
	switch {
	case t.Trace != nil || t.RPS == 0:
		return t.Trace
	case t.Pattern == "" || t.Pattern == "constant":
		return workload.Constant(t.RPS, dur, time.Minute)
	}
	tr, err := workload.ByName(t.Pattern, workload.Options{Seed: t.Seed, Days: int(dur/(24*time.Hour)) + 1, BaseRPS: t.RPS})
	if err != nil {
		panic(err)
	}
	return tr
}
