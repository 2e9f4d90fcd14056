package gateway

// parity_test.go drives the SAME constant-rate workload through both
// data planes — the discrete-event simulator and this wall-clock
// gateway — and checks that the shared internal/runtime policies make
// them behave alike: similar batch-size distributions and similar
// cold-start (instance-launch) counts. The planes are not bit-identical
// (the gateway scales reactively per request, the simulator on
// autoscaler ticks; their cold-start cost models differ), so the
// comparison uses loose tolerances; what it pins is that neither plane
// drifts to a different batching regime.

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

// launchCounter counts gateway instance launches via the Config.Observer
// hook (the gateway-plane equivalent of FunctionState.ColdLaunches).
type launchCounter struct {
	runtime.NopObserver
	mu       sync.Mutex
	launches int
	cold     int
}

func (lc *launchCounter) InstanceLaunched(_ string, _ int, cold bool, _, _ time.Duration) {
	lc.mu.Lock()
	lc.launches++
	if cold {
		lc.cold++
	}
	lc.mu.Unlock()
}

func (lc *launchCounter) counts() (launches, cold int) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.launches, lc.cold
}

// meanBatch converts a FunctionState.BatchServed-style histogram
// (batch size -> requests served at that size) to a per-request mean.
func meanBatch(hist map[int]uint64) (mean float64, served uint64) {
	var weighted float64
	for size, requests := range hist {
		weighted += float64(size) * float64(requests)
		served += requests
	}
	if served == 0 {
		return 0, 0
	}
	return weighted / float64(served), served
}

func TestCrossPlaneParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock parity run")
	}
	const (
		rps      = 40.0
		speed    = 10.0
		modelDur = 30 * time.Second
		slo      = 500 * time.Millisecond
	)

	// Simulator plane: INFless controller, identical function and load.
	eng := sim.New(core.New(core.Options{}), sim.Config{
		Cluster:  cluster.New(cluster.Options{Servers: 8}),
		Seed:     1,
		Duration: modelDur,
	})
	fs := eng.AddFunction(sim.FunctionSpec{
		Name:  "mnist",
		Model: model.MustGet("MNIST"),
		SLO:   slo,
		Trace: workload.Constant(rps, modelDur, time.Second),
	})
	eng.Run()
	simMean, simServed := meanBatch(fs.BatchServed)
	if simServed == 0 {
		t.Fatal("simulator served nothing")
	}

	// Gateway plane: same function, same model-time request spacing,
	// compressed by SpeedFactor. Invoked in-process (no HTTP) so request
	// pacing is not polluted by server scheduling jitter.
	lc := &launchCounter{}
	gw := New(Config{SpeedFactor: speed, IdleTimeout: time.Minute, Seed: 1, Observer: lc})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "mnist", ModelName: "MNIST", SLO: slo}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	f, _ := gw.tbl.Get("mnist")

	total := int(rps * modelDur.Seconds())
	interval := time.Duration(float64(time.Second) / (rps * speed))
	sizes := make([]int, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := f.invoke(context.Background()); err == nil {
				sizes[i] = res.BatchSize
			}
		}(i)
	}
	wg.Wait()

	gwHist := map[int]uint64{}
	for _, s := range sizes {
		if s > 0 {
			gwHist[s]++
		}
	}
	gwMean, gwServed := meanBatch(gwHist)
	if float64(gwServed) < 0.9*float64(total) {
		t.Fatalf("gateway served only %d/%d requests", gwServed, total)
	}

	// Batch-size regime parity: both planes must actually batch (mean
	// well above 1 — a plane degenerating to batch-of-1 fails even if
	// the other stays low) and the means must be within 3.5x. The ratio
	// is loose because the planes correct ramp decisions differently:
	// the simulator's periodic tick retires undersized instances, while
	// the gateway keeps whatever the reactive ramp launched, so a jittery
	// ramp can settle one batch-size tier lower.
	t.Logf("sim: mean batch %.2f over %d requests, %d cold launches of %d",
		simMean, simServed, fs.ColdLaunches, fs.Launches)
	launches, cold := lc.counts()
	t.Logf("gateway: mean batch %.2f over %d requests, %d cold launches of %d",
		gwMean, gwServed, cold, launches)
	if simMean < 1.5 || gwMean < 1.5 {
		t.Errorf("a plane degenerated to unbatched execution: sim %.2f, gateway %.2f", simMean, gwMean)
	}
	if gwMean > 3.5*simMean || simMean > 3.5*gwMean {
		t.Errorf("batch-size means diverge: sim %.2f vs gateway %.2f", simMean, gwMean)
	}

	// Cold-start parity: constant load never goes idle, so both planes
	// pay only the initial scale-up. Allow a small absolute gap (the
	// gateway scales per request, the sim per tick).
	if cold < 1 || fs.ColdLaunches < 1 {
		t.Errorf("expected at least one cold start per plane: sim %d, gateway %d", fs.ColdLaunches, cold)
	}
	diff := cold - int(fs.ColdLaunches)
	if diff < 0 {
		diff = -diff
	}
	if diff > 3 {
		t.Errorf("cold-start counts diverge: sim %d vs gateway %d", fs.ColdLaunches, cold)
	}
}

// TestObserverSeesLifecycle exercises the Config.Observer hook end to
// end on a single invocation: arrival, launch, batch submission and a
// served sample must all reach the external observer.
func TestObserverSeesLifecycle(t *testing.T) {
	rec := &lifecycleRecorder{}
	gw := New(Config{SpeedFactor: 200, IdleTimeout: time.Second, Seed: 1, Observer: rec})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "f", ModelName: "MNIST", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	f, _ := gw.tbl.Get("f")
	if _, err := f.invoke(context.Background()); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	arrived, launched, batched, served := rec.counts()
	if arrived != 1 || launched != 1 || batched != 1 || served != 1 {
		t.Fatalf("lifecycle events = arrived %d launched %d batched %d served %d, want 1 each",
			arrived, launched, batched, served)
	}
}

type lifecycleRecorder struct {
	runtime.NopObserver
	mu                                 sync.Mutex
	arrived, launched, batched, served int
}

func (r *lifecycleRecorder) counts() (arrived, launched, batched, served int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arrived, r.launched, r.batched, r.served
}

func (r *lifecycleRecorder) RequestArrived(string, time.Duration) {
	r.mu.Lock()
	r.arrived++
	r.mu.Unlock()
}

func (r *lifecycleRecorder) InstanceLaunched(string, int, bool, time.Duration, time.Duration) {
	r.mu.Lock()
	r.launched++
	r.mu.Unlock()
}

func (r *lifecycleRecorder) BatchSubmitted(string, int, int, time.Duration) {
	r.mu.Lock()
	r.batched++
	r.mu.Unlock()
}

func (r *lifecycleRecorder) RequestServed(string, metrics.Sample, time.Duration) {
	r.mu.Lock()
	r.served++
	r.mu.Unlock()
}
