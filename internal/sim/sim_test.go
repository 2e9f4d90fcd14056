package sim_test

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/baselines"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

func runSystem(t *testing.T, ctrl sim.Controller, rps float64, dur time.Duration, modelName string, slo time.Duration) *sim.Result {
	t.Helper()
	e := sim.New(ctrl, sim.Config{
		Cluster:  cluster.Testbed(),
		Duration: dur,
		Seed:     42,
	})
	e.AddFunction(sim.FunctionSpec{
		Name:  "fn",
		Model: model.MustGet(modelName),
		SLO:   slo,
		Trace: workload.Constant(rps, dur, time.Minute),
	})
	return e.Run()
}

func TestInflessServesConstantLoad(t *testing.T) {
	res := runSystem(t, core.New(core.Options{}), 100, 3*time.Minute, "ResNet-50", 200*time.Millisecond)
	served := res.Served()
	// ~18000 requests offered; the first tick's scale-out plus cold start
	// loses a few seconds' worth.
	if served < 15000 {
		t.Fatalf("served = %d, want most of ~18000", served)
	}
	if v := res.ViolationRate(); v > 0.10 {
		t.Fatalf("violation rate = %.3f, want <= 0.10", v)
	}
	f := res.Telemetry.Functions[0]
	if f.Launches == 0 {
		t.Fatal("no instances launched")
	}
	if f.MeanQueueMs == 0 || f.MeanExecMs == 0 {
		t.Fatalf("breakdown missing components: queue=%vms exec=%vms", f.MeanQueueMs, f.MeanExecMs)
	}
}

func TestInflessMeetsSLO(t *testing.T) {
	res := runSystem(t, core.New(core.Options{}), 60, 3*time.Minute, "MobileNet", 100*time.Millisecond)
	if v := res.ViolationRate(); v > 0.10 {
		t.Fatalf("violation rate = %.3f for MobileNet@100ms", v)
	}
}

func TestOpenFaaSPlusServes(t *testing.T) {
	res := runSystem(t, baselines.NewOpenFaaSPlus(), 50, 2*time.Minute, "ResNet-50", 200*time.Millisecond)
	if res.Served() < 4000 {
		t.Fatalf("openfaas+ served only %d of ~6000", res.Served())
	}
	// One-to-one mapping must never batch.
	for b := range res.Telemetry.Functions[0].BatchServed {
		if b != 1 {
			t.Fatalf("openfaas+ executed batch of %d", b)
		}
	}
}

func TestBatchSysServesAndBatches(t *testing.T) {
	res := runSystem(t, baselines.NewBatchSys(), 100, 2*time.Minute, "ResNet-50", 200*time.Millisecond)
	if res.Served() < 8000 {
		t.Fatalf("batch served only %d of ~12000", res.Served())
	}
	batched := false
	for b := range res.Telemetry.Functions[0].BatchServed {
		if b > 1 {
			batched = true
		}
	}
	if !batched {
		t.Fatal("BATCH never aggregated a batch")
	}
}

// The headline comparison: INFless achieves higher throughput per unit of
// resource than both baselines on the same workload (Figure 12a).
func TestInflessBeatsBaselinesOnEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system comparison")
	}
	const rps, dur = 120.0, 4 * time.Minute
	inf := runSystem(t, core.New(core.Options{}), rps, dur, "ResNet-50", 200*time.Millisecond)
	ofp := runSystem(t, baselines.NewOpenFaaSPlus(), rps, dur, "ResNet-50", 200*time.Millisecond)
	bat := runSystem(t, baselines.NewBatchSys(), rps, dur, "ResNet-50", 200*time.Millisecond)

	ti, to, tb := inf.ThroughputPerResource(), ofp.ThroughputPerResource(), bat.ThroughputPerResource()
	t.Logf("throughput/resource: infless=%.2f batch=%.2f openfaas+=%.2f", ti, tb, to)
	if ti <= tb || ti <= to {
		t.Errorf("INFless (%.2f) should beat BATCH (%.2f) and OpenFaaS+ (%.2f)", ti, tb, to)
	}
}

func TestInflessScalesInAfterLoadDrop(t *testing.T) {
	// 2 minutes of load, then silence: instances must be released.
	tr := &workload.Trace{Name: "step", Step: time.Minute, RPS: []float64{100, 100, 0, 0, 0, 0}}
	e := sim.New(core.New(core.Options{}), sim.Config{
		Cluster:  cluster.Testbed(),
		Duration: 6 * time.Minute,
		Seed:     1,
	})
	f := e.AddFunction(sim.FunctionSpec{
		Name:  "fn",
		Model: model.MustGet("ResNet-50"),
		SLO:   200 * time.Millisecond,
		Trace: tr,
	})
	res := e.Run()
	if len(f.Instances()) != 0 {
		t.Errorf("instances remain after load drop: %d", len(f.Instances()))
	}
	if res.Served() == 0 {
		t.Fatal("nothing served")
	}
	if got := e.Cluster().TotalAllocated(); !got.IsZero() {
		t.Errorf("resources still allocated: %v", got)
	}
}

func TestEngineDeterminism(t *testing.T) {
	a := runSystem(t, core.New(core.Options{}), 80, 2*time.Minute, "MobileNet", 150*time.Millisecond)
	b := runSystem(t, core.New(core.Options{}), 80, 2*time.Minute, "MobileNet", 150*time.Millisecond)
	if a.Served() != b.Served() || a.Dropped() != b.Dropped() {
		t.Fatalf("non-deterministic: served %d/%d dropped %d/%d", a.Served(), b.Served(), a.Dropped(), b.Dropped())
	}
}

func TestMultiFunctionRun(t *testing.T) {
	e := sim.New(core.New(core.Options{}), sim.Config{
		Cluster:  cluster.Testbed(),
		Duration: 2 * time.Minute,
		Seed:     7,
	})
	specs := []struct {
		name string
		m    string
		slo  time.Duration
		rps  float64
	}{
		{"detect", "SSD", 200 * time.Millisecond, 40},
		{"classify", "ResNet-50", 200 * time.Millisecond, 60},
		{"qa", "TextCNN-69", 50 * time.Millisecond, 80},
	}
	for _, s := range specs {
		e.AddFunction(sim.FunctionSpec{
			Name:  s.name,
			Model: model.MustGet(s.m),
			SLO:   s.slo,
			Trace: workload.Constant(s.rps, 2*time.Minute, time.Minute),
		})
	}
	res := e.Run()
	if len(res.Telemetry.Functions) != len(specs) {
		t.Fatalf("snapshot has %d functions, want %d", len(res.Telemetry.Functions), len(specs))
	}
	for _, f := range res.Telemetry.Functions {
		if f.Served == 0 {
			t.Errorf("%s served nothing", f.Name)
		}
	}
}

func TestPanicsOnInvalidSpec(t *testing.T) {
	e := sim.New(core.New(core.Options{}), sim.Config{})
	for _, spec := range []sim.FunctionSpec{
		{Name: "no-model", SLO: time.Second},
		{Name: "no-slo", Model: model.MustGet("MNIST")},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", spec.Name)
				}
			}()
			e.AddFunction(spec)
		}()
	}
}

func TestOverloadDropsInsteadOfHanging(t *testing.T) {
	// A single tiny server cannot absorb 500 RPS of SSD; the engine must
	// finish and report drops.
	e := sim.New(core.New(core.Options{}), sim.Config{
		Cluster:  cluster.New(cluster.Options{Servers: 1, PerServer: perfRes(2, 1)}),
		Duration: time.Minute,
		Seed:     3,
	})
	e.AddFunction(sim.FunctionSpec{
		Name:  "ssd",
		Model: model.MustGet("SSD"),
		SLO:   200 * time.Millisecond,
		Trace: workload.Constant(500, time.Minute, time.Minute),
	})
	res := e.Run()
	if res.Dropped() == 0 {
		t.Fatal("overload should produce drops")
	}
}

func perfRes(cpu, gpu int) perf.Resources { return perf.Resources{CPU: cpu, GPU: gpu} }
