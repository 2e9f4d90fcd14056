package core

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

func newEngine(opts Options, rps float64, dur time.Duration) (*sim.Engine, *sim.FunctionState) {
	e := sim.New(New(opts), sim.Config{Cluster: cluster.Testbed(), Duration: dur, Seed: 5})
	f := e.AddFunction(sim.FunctionSpec{
		Name:  "resnet",
		Model: model.MustGet("ResNet-50"),
		SLO:   200 * time.Millisecond,
		Trace: workload.Constant(rps, dur, time.Minute),
	})
	return e, f
}

func TestControllerAssignsLSTHByDefault(t *testing.T) {
	e, f := newEngine(Options{}, 10, time.Second)
	e.Run()
	if f.Policy == nil {
		t.Fatal("no policy assigned")
	}
	if _, ok := f.Policy.(*coldstart.LSTH); !ok {
		t.Fatalf("default policy = %T, want *coldstart.LSTH", f.Policy)
	}
}

func TestControllerRespectsCustomPolicy(t *testing.T) {
	e := sim.New(New(Options{}), sim.Config{Duration: time.Second, Seed: 1})
	f := e.AddFunction(sim.FunctionSpec{
		Name:   "f",
		Model:  model.MustGet("MNIST"),
		SLO:    time.Second,
		Trace:  workload.Constant(5, time.Second, time.Second),
		Policy: coldstart.Fixed{KeepAlive: time.Minute},
	})
	e.Run()
	if _, ok := f.Policy.(coldstart.Fixed); !ok {
		t.Fatalf("custom policy overwritten: %T", f.Policy)
	}
}

func TestRouteRespectsAdmissionWindows(t *testing.T) {
	// With two instances at different rates, the higher-rate instance
	// must receive proportionally more requests.
	e, _ := newEngine(Options{}, 200, 2*time.Minute)
	res := e.Run()
	if res.Served() == 0 {
		t.Fatal("nothing served")
	}
	// All requests were dispatched through credits without mass drops.
	if rate := res.ViolationRate(); rate > 0.1 {
		t.Fatalf("violation rate %.3f too high for moderate load", rate)
	}
}

func TestScaleOutUsesNonUniformConfigs(t *testing.T) {
	e, _ := newEngine(Options{}, 1500, 2*time.Minute)
	if n := e.Run().Telemetry.Functions[0].Launches; n < 2 {
		t.Fatalf("launches = %d, want several at 1500 RPS", n)
	}
}

func TestAblationOptionsPropagate(t *testing.T) {
	// BB ablation: every batch executed must be size 1.
	o := Options{}
	o.Sched.ForceBatchOne = true
	e, _ := newEngine(o, 100, time.Minute)
	for b := range e.Run().Telemetry.Functions[0].BatchServed {
		if b != 1 {
			t.Fatalf("BB ablation executed batch %d", b)
		}
	}
}

func TestPredictionInflateChangesChoices(t *testing.T) {
	base, _ := newEngine(Options{}, 800, time.Minute)
	rBase := base.Run()
	infl, _ := newEngine(Options{PredictionInflate: 2.0}, 800, time.Minute)
	rInfl := infl.Run()
	// OP2 halves the estimated capacity of every configuration, so
	// serving the same load must consume at least as many resources
	// (the paper: reduced prediction accuracy => resource waste).
	used, baseline := rInfl.Telemetry.Resources.WeightedSeconds, rBase.Telemetry.Resources.WeightedSeconds
	if used < baseline*0.95 {
		t.Errorf("OP2 resource-seconds %.1f < baseline %.1f", used, baseline)
	}
}

func TestSLOAwareAdmission(t *testing.T) {
	var a sim.Admitter = New(Options{})
	if !a.SLOAwareAdmission() {
		t.Fatal("INFless must be SLO-aware at admission")
	}
}

func TestScaleInReleasesInstances(t *testing.T) {
	dur := 4 * time.Minute
	tr := &workload.Trace{Name: "step", Step: time.Minute, RPS: []float64{800, 800, 5, 5}}
	e := sim.New(New(Options{}), sim.Config{Cluster: cluster.Testbed(), Duration: dur, Seed: 5})
	f := e.AddFunction(sim.FunctionSpec{
		Name:  "resnet",
		Model: model.MustGet("ResNet-50"),
		SLO:   200 * time.Millisecond,
		Trace: tr,
	})
	e.Run()
	// After the drop to 5 RPS, a single small instance suffices.
	if n := len(f.Instances()); n > 2 {
		t.Errorf("instances after scale-in = %d, want <= 2", n)
	}
}

func TestAlphaControlsScaleInLag(t *testing.T) {
	run := func(alpha float64) int {
		tr := workload.Bursty(workload.Options{Days: 1, Seed: 9, BaseRPS: 300})
		e := sim.New(New(Options{Alpha: alpha}), sim.Config{Cluster: cluster.Testbed(), Duration: 20 * time.Minute, Seed: 9})
		e.AddFunction(sim.FunctionSpec{
			Name:  "resnet",
			Model: model.MustGet("ResNet-50"),
			SLO:   200 * time.Millisecond,
			Trace: tr,
		})
		return e.Run().Telemetry.Functions[0].Launches
	}
	// Sanity: both extremes run and produce instances.
	if run(0.5) == 0 || run(1.0) == 0 {
		t.Fatal("alpha sweep produced no launches")
	}
}
