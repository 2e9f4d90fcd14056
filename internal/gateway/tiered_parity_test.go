package gateway

// tiered_parity_test.go extends the cross-plane parity suite to the
// multi-tier cold-start model: with the same artifact.Config, the first
// cold launch of a freshly deployed function must be priced identically
// on both planes — same resident tier (SSD, where deploy seeds the
// checkpoint), same load time, same DRAM promote — because both planes
// share artifact.Hierarchy and artifact.Cache.

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

// startupRecorder captures InstanceStartup breakdowns via the optional
// runtime.StartupObserver extension.
type startupRecorder struct {
	runtime.NopObserver
	mu  sync.Mutex
	bds []artifact.Breakdown
}

func (r *startupRecorder) InstanceStartup(_ string, _ int, bd artifact.Breakdown, _ time.Duration) {
	r.mu.Lock()
	r.bds = append(r.bds, bd)
	r.mu.Unlock()
}

func (r *startupRecorder) first() (artifact.Breakdown, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bds) == 0 {
		return artifact.Breakdown{}, false
	}
	return r.bds[0], true
}

func TestCrossPlaneTieredStartupParity(t *testing.T) {
	st := artifact.DefaultConfig()

	// Simulator plane: run the INFless controller long enough for one
	// cold launch and record its breakdown.
	simRec := &startupRecorder{}
	eng := sim.New(core.New(core.Options{}), sim.Config{
		Cluster:  cluster.New(cluster.Options{Servers: 8}),
		Seed:     1,
		Duration: 10 * time.Second,
		Storage:  &st,
	})
	eng.Observe(simRec)
	eng.AddFunction(sim.FunctionSpec{
		Name:  "mnist",
		Model: model.MustGet("MNIST"),
		SLO:   500 * time.Millisecond,
		Trace: workload.Constant(20, 10*time.Second, time.Second),
	})
	eng.Run()
	simBD, ok := simRec.first()
	if !ok {
		t.Fatal("simulator recorded no tiered startup")
	}

	// Gateway plane: one in-process invocation forces one cold launch.
	gwRec := &startupRecorder{}
	gw := New(Config{SpeedFactor: 200, IdleTimeout: time.Second, Seed: 1, Observer: gwRec, Storage: &st})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "mnist", ModelName: "MNIST", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	f, _ := gw.tbl.Get("mnist")
	if _, err := f.invoke(context.Background()); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	gwBD, ok := gwRec.first()
	if !ok {
		t.Fatal("gateway recorded no tiered startup")
	}

	// Both planes seed the checkpoint on local SSD at deploy time, so the
	// first cold launch must price identically, field by field.
	if simBD.From != artifact.TierSSD || gwBD.From != artifact.TierSSD {
		t.Errorf("first launch tier: sim %v, gateway %v, want ssd on both", simBD.From, gwBD.From)
	}
	if simBD != gwBD {
		t.Errorf("tiered startup breakdowns diverge:\n  sim     %+v\n  gateway %+v", simBD, gwBD)
	}
	mem := model.MustGet("MNIST").MemoryMB
	want := st.Hierarchy.Startup(mem, artifact.TierSSD)
	want.Promote = st.Hierarchy.PromoteTime(mem, artifact.TierDRAM)
	if simBD != want {
		t.Errorf("sim breakdown %+v, want %+v (SSD load + DRAM promote)", simBD, want)
	}
}
