package baselines

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

func TestLambdaExecTimeMemoryGate(t *testing.T) {
	bert := model.MustGet("Bert-v1")
	if _, err := LambdaExecTime(bert, 1024, 1); err == nil {
		t.Error("Bert (2.5GB) should not load in 1GB")
	}
	if _, err := LambdaExecTime(bert, 3072, 1); err != nil {
		t.Errorf("Bert should load in 3GB: %v", err)
	}
}

func TestLambdaExecTimeScalesWithMemory(t *testing.T) {
	m := model.MustGet("ResNet-50")
	small, err := LambdaExecTime(m, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := LambdaExecTime(m, 3072, 1)
	if err != nil {
		t.Fatal(err)
	}
	if big >= small {
		t.Errorf("more memory (=> more CPU) should be faster: %v vs %v", big, small)
	}
}

// Observation 1: large models cannot meet 200 ms at any Lambda memory
// configuration, while small models can.
func TestLambdaObservation1(t *testing.T) {
	if _, ok := LambdaMinMemoryForSLO(model.MustGet("Bert-v1"), 200*time.Millisecond, 1); ok {
		t.Error("Bert-v1 should be unable to meet 200ms on CPU-only Lambda")
	}
	if _, ok := LambdaMinMemoryForSLO(model.MustGet("MNIST"), 200*time.Millisecond, 1); !ok {
		t.Error("MNIST should trivially meet 200ms")
	}
}

// Observation 2: batching pushes some models past the SLO on Lambda.
func TestLambdaObservation2(t *testing.T) {
	pushed := 0
	for _, m := range model.Table1() {
		d1, err1 := LambdaExecTime(m, 3072, 1)
		d4, err4 := LambdaExecTime(m, 3072, 4)
		if err1 != nil || err4 != nil {
			continue
		}
		if d1 <= 200*time.Millisecond && d4 > 200*time.Millisecond {
			pushed++
		}
	}
	if pushed < 2 {
		t.Errorf("only %d models pushed past 200ms by batching; want several", pushed)
	}
}

// Observation 3: substantial memory over-provisioning to reach the SLO.
func TestLambdaObservation3(t *testing.T) {
	var sum float64
	n := 0
	for _, m := range model.Table1() {
		over, _, ok := LambdaOverProvisioning(m, 200*time.Millisecond, 1)
		if !ok {
			continue
		}
		sum += over
		n++
	}
	if n == 0 || sum/float64(n) < 0.4 {
		t.Errorf("mean over-provisioning = %.2f across %d models, want > 0.4 (paper: >50%%)", sum/float64(n), n)
	}
}

func TestReplayOneToOneBasics(t *testing.T) {
	arr := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, time.Hour}
	st := ReplayOneToOne(arr, 50*time.Millisecond, 1024, 300*time.Second, 1, 0)
	if st.Requests != 4 || st.Invocations != 4 {
		t.Fatalf("one-to-one stats: %+v", st)
	}
	// First three overlap (50ms exec, 10ms gaps) => 3 concurrent
	// instances; the one an hour later exceeds keep-alive => 4th launch.
	if st.Launches != 4 {
		t.Errorf("launches = %d, want 4", st.Launches)
	}
	if st.MemoryGBs <= 0 {
		t.Error("memory accounting missing")
	}
}

func TestReplayBatchingGroups(t *testing.T) {
	var arr []time.Duration
	for i := 0; i < 8; i++ {
		arr = append(arr, time.Duration(i)*10*time.Millisecond)
	}
	st := ReplayOneToOne(arr, 50*time.Millisecond, 1024, 300*time.Second, 4, 100*time.Millisecond)
	if st.Invocations != 2 {
		t.Errorf("8 requests at batch 4 should make 2 invocations, got %d", st.Invocations)
	}
}

func TestOpenFaaSPlusOneToOne(t *testing.T) {
	ctrl := NewOpenFaaSPlus()
	e := sim.New(ctrl, sim.Config{Cluster: cluster.Testbed(), Duration: time.Minute, Seed: 2})
	e.AddFunction(sim.FunctionSpec{
		Name:  "f",
		Model: model.MustGet("MobileNet"),
		SLO:   100 * time.Millisecond,
		Trace: workload.Constant(40, time.Minute, time.Minute),
	})
	res := e.Run()
	f := res.Functions[0]
	if res.Served() == 0 {
		t.Fatal("nothing served")
	}
	for b := range res.Telemetry.Functions[0].BatchServed {
		if b != 1 {
			t.Fatalf("one-to-one executed batch %d", b)
		}
	}
	for cfg := range f.ConfigCount {
		if cfg != "(1,2,1)" {
			t.Fatalf("unexpected uniform config %s", cfg)
		}
	}
}

func TestOpenFaaSPlusInfeasibleSLOStillRuns(t *testing.T) {
	ctrl := NewOpenFaaSPlus()
	e := sim.New(ctrl, sim.Config{Cluster: cluster.Testbed(), Duration: 30 * time.Second, Seed: 2})
	e.AddFunction(sim.FunctionSpec{
		Name:  "bert",
		Model: model.MustGet("Bert-v1"),
		SLO:   20 * time.Millisecond, // impossible on (2,1)
		Trace: workload.Constant(5, 30*time.Second, time.Minute),
	})
	res := e.Run()
	if res.Served() == 0 {
		t.Fatal("baseline should still execute (and violate)")
	}
	if res.ViolationRate() < 0.9 {
		t.Errorf("violation rate = %.2f, want ~1.0 for impossible SLO", res.ViolationRate())
	}
}

func TestBatchSysUniformConfigs(t *testing.T) {
	ctrl := NewBatchSys()
	e := sim.New(ctrl, sim.Config{Cluster: cluster.Testbed(), Duration: 2 * time.Minute, Seed: 3})
	e.AddFunction(sim.FunctionSpec{
		Name:  "f",
		Model: model.MustGet("ResNet-50"),
		SLO:   200 * time.Millisecond,
		Trace: workload.Constant(400, 2*time.Minute, time.Minute),
	})
	res := e.Run()
	f := res.Functions[0]
	if res.Served() == 0 {
		t.Fatal("nothing served")
	}
	// Uniform scaling: very few distinct configurations (paper: 3).
	if len(f.ConfigCount) > 3 {
		t.Errorf("BATCH used %d configs, want <= 3 (uniform scaling)", len(f.ConfigCount))
	}
}

func TestBatchSysBatchRungCoupling(t *testing.T) {
	for _, maxBatch := range []int{0, 4} { // 0: the model's own cap
		b := NewBatchSys()
		e := sim.New(b, sim.Config{Cluster: cluster.Testbed(), Duration: time.Second})
		f := e.AddFunction(sim.FunctionSpec{
			Name:     "f",
			Model:    model.MustGet("ResNet-50"),
			SLO:      300 * time.Millisecond,
			Trace:    workload.Constant(1, time.Second, time.Second),
			MaxBatch: maxBatch,
		})
		b.Init(e)
		menu := f.CtrlState().(*batchState).menu
		if len(menu) == 0 {
			t.Fatal("empty menu")
		}
		for _, c := range menu {
			if c.B > 2*c.Res.CPU {
				t.Errorf("menu violates batch-size coupling: b=%d on %v", c.B, c.Res)
			}
			if maxBatch > 0 && c.B > maxBatch {
				t.Errorf("menu holds b=%d above the declared cap %d", c.B, maxBatch)
			}
		}
	}
}

func TestBatchSysDispatchDelay(t *testing.T) {
	var _ sim.DispatchDelayer = NewBatchSys()
	if d := NewBatchSys().DispatchDelay(); d <= 0 {
		t.Fatal("OTP dispatch delay must be positive")
	}
}

func TestFirstFit(t *testing.T) {
	cl := cluster.New(cluster.Options{Servers: 2})
	// Fill server 0's GPUs.
	if err := cl.Allocate(0, perf.Resources{GPU: 20}, 0); err != nil {
		t.Fatal(err)
	}
	id, ok := firstFit(cl, perf.Resources{GPU: 1}, 0)
	if !ok || id != 1 {
		t.Fatalf("firstFit = %d, %v; want server 1", id, ok)
	}
	if _, ok := firstFit(cl, perf.Resources{GPU: 21}, 0); ok {
		t.Fatal("oversized request should not fit")
	}
}
