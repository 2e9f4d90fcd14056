package gateway

// telemetry_parity_test.go extends parity_test.go to the observation
// layer: both data planes feed the SAME telemetry.Collector type through
// the shared runtime.Observer interface, so the snapshots they produce
// must be structurally identical and quantitatively close for the same
// workload. What parity_test.go pins for the batching policies, this
// file pins for the metrics pipeline — the simulator's report and the
// gateway's /system/metrics are comparable documents.

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

func TestCrossPlaneTelemetryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock parity run")
	}
	const (
		rps      = 40.0
		speed    = 20.0
		modelDur = 15 * time.Second
		slo      = 500 * time.Millisecond
	)

	// Simulator plane. The trace carries load for modelDur then 5s of
	// zero-rate drain steps so in-flight requests finish — the gateway
	// side below waits for every invocation to return, and served totals
	// must be comparable.
	const drain = 5 * time.Second
	trace := workload.Constant(rps, modelDur, time.Second)
	for i := 0; i < int(drain/time.Second); i++ {
		trace.RPS = append(trace.RPS, 0)
	}
	eng := sim.New(core.New(core.Options{}), sim.Config{
		Cluster:  cluster.New(cluster.Options{Servers: 8}),
		Seed:     1,
		Duration: modelDur + drain,
	})
	eng.AddFunction(sim.FunctionSpec{
		Name:  "mnist",
		Model: model.MustGet("MNIST"),
		SLO:   slo,
		Trace: trace,
	})
	res := eng.Run()
	simSnap := res.Telemetry

	// Gateway plane: same function, same model-time request spacing.
	gw := New(Config{SpeedFactor: speed, IdleTimeout: time.Minute, Seed: 1})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "mnist", ModelName: "MNIST", SLO: slo}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	f, _ := gw.tbl.Get("mnist")

	total := int(rps * modelDur.Seconds())
	interval := time.Duration(float64(time.Second) / (rps * speed))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = f.invoke(context.Background())
		}()
	}
	wg.Wait()
	gwSnap := gw.Telemetry().SnapshotAt(gw.PlaneNow())

	// Structural parity: same schema, same function set, and both planes
	// populated every section of the document.
	if simSnap.SchemaVersion != gwSnap.SchemaVersion {
		t.Fatalf("schema versions diverge: sim %d vs gateway %d", simSnap.SchemaVersion, gwSnap.SchemaVersion)
	}
	if len(simSnap.Functions) != 1 || len(gwSnap.Functions) != 1 {
		t.Fatalf("function counts: sim %d, gateway %d", len(simSnap.Functions), len(gwSnap.Functions))
	}
	sf, gf := simSnap.Functions[0], gwSnap.Functions[0]
	if sf.Name != gf.Name {
		t.Fatalf("function names diverge: %q vs %q", sf.Name, gf.Name)
	}

	t.Logf("sim:     served=%d meanBatch=%.2f p99=%.1fms launches=%d", sf.Served, sf.MeanBatch, sf.P99Ms, sf.Launches)
	t.Logf("gateway: served=%d meanBatch=%.2f p99=%.1fms launches=%d", gf.Served, gf.MeanBatch, gf.P99Ms, gf.Launches)

	// Quantitative parity. Served totals must be close; the tolerance
	// absorbs Poisson arrival noise in the sim's trace and SLO-boundary
	// drops that only one plane takes.
	if float64(gf.Served) < 0.75*float64(sf.Served) || float64(sf.Served) < 0.75*float64(gf.Served) {
		t.Errorf("served counts diverge: sim %d vs gateway %d", sf.Served, gf.Served)
	}
	// Both planes must batch (regime parity, same tolerance rationale as
	// TestCrossPlaneParity) and report positive latency statistics.
	if sf.MeanBatch < 1.2 || gf.MeanBatch < 1.2 {
		t.Errorf("a plane degenerated to unbatched execution: sim %.2f, gateway %.2f", sf.MeanBatch, gf.MeanBatch)
	}
	for name, fn := range map[string]struct{ p50, p99, mean float64 }{
		"sim":     {sf.P50Ms, sf.P99Ms, sf.MeanMs},
		"gateway": {gf.P50Ms, gf.P99Ms, gf.MeanMs},
	} {
		if fn.p50 <= 0 || fn.p99 <= 0 || fn.mean <= 0 {
			t.Errorf("%s latency stats not populated: %+v", name, fn)
		}
		if fn.p99 < fn.p50 {
			t.Errorf("%s quantiles inverted: p99 %.2f < p50 %.2f", name, fn.p99, fn.p50)
		}
	}
	// Both planes saw launches and recorded the allocation series.
	if sf.Launches < 1 || gf.Launches < 1 {
		t.Errorf("launch counts: sim %d, gateway %d", sf.Launches, gf.Launches)
	}
	if len(simSnap.Resources.Series) == 0 || len(gwSnap.Resources.Series) == 0 {
		t.Errorf("resource series missing: sim %d points, gateway %d points",
			len(simSnap.Resources.Series), len(gwSnap.Resources.Series))
	}
	if simSnap.Resources.WeightedSeconds <= 0 || gwSnap.Resources.WeightedSeconds <= 0 {
		t.Errorf("weighted resource integrals: sim %.2f, gateway %.2f",
			simSnap.Resources.WeightedSeconds, gwSnap.Resources.WeightedSeconds)
	}
}
