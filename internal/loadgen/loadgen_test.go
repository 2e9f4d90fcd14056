package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/gateway"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/workload"
)

func TestRunAgainstStubServer(t *testing.T) {
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	stats, err := Run(context.Background(), Config{
		URL:         ts.URL,
		Trace:       workload.Constant(100, 2*time.Second, time.Second),
		SpeedFactor: 20, // 2 virtual seconds in 100ms of wall time
		SLO:         time.Second,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent < 150 || stats.OK != hits.Load() || stats.Failed != 0 {
		t.Fatalf("stats = %+v (hits %d)", stats, hits.Load())
	}
	if stats.MeanMs <= 0 || stats.P99Ms < stats.P50Ms {
		t.Fatalf("latency stats inconsistent: %+v", stats)
	}
	if stats.String() == "" {
		t.Fatal("empty render")
	}
}

func TestRunCountsFailures(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	stats, err := Run(context.Background(), Config{
		URL:         ts.URL,
		Trace:       workload.Constant(50, time.Second, time.Second),
		SpeedFactor: 20,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed == 0 || stats.OK != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestRunCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{
		URL:   ts.URL,
		Trace: workload.Constant(1, time.Hour, time.Minute),
		Seed:  3,
	})
	if err == nil {
		t.Fatal("cancellation not reported")
	}
}

// End-to-end: the load generator drives a real gateway instance.
func TestRunAgainstGateway(t *testing.T) {
	gw := gateway.New(gateway.Config{SpeedFactor: 200, IdleTimeout: 5 * time.Second, Seed: 1})
	ts := httptest.NewServer(gw)
	defer ts.Close()
	defer gw.Close()

	body, _ := json.Marshal(gateway.DeployRequest{Name: "f", Model: "MobileNet", SLO: "150ms"})
	resp, err := http.Post(ts.URL+"/system/functions", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: %v %v", err, resp.Status)
	}

	stats, err := Run(context.Background(), Config{
		URL:         ts.URL + "/function/f",
		Trace:       workload.Constant(40, 3*time.Second, time.Second),
		SpeedFactor: 10,
		SLO:         150 * time.Millisecond,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK < 50 {
		t.Fatalf("too few successes: %+v", stats)
	}
}

// TestRunClosedLoop: fixed connections issuing back-to-back requests.
func TestRunClosedLoop(t *testing.T) {
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	stats, err := Run(context.Background(), Config{
		URL:         ts.URL,
		Mode:        ModeClosed,
		Duration:    300 * time.Millisecond,
		Connections: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK == 0 || stats.OK > hits.Load() || stats.Failed != 0 {
		t.Fatalf("stats = %+v (hits %d)", stats, hits.Load())
	}
	if stats.RPS <= 0 || stats.P999Ms < stats.P99Ms {
		t.Fatalf("derived stats inconsistent: %+v", stats)
	}
}

// TestRunCountsSheds: 429 responses are sheds, not failures.
func TestRunCountsSheds(t *testing.T) {
	var n atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	stats, err := Run(context.Background(), Config{
		URL:         ts.URL,
		Trace:       workload.Constant(50, time.Second, time.Second),
		SpeedFactor: 20,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed == 0 || stats.Failed != 0 || stats.OK == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Sent != stats.OK+stats.Shed {
		t.Fatalf("sent %d != ok %d + shed %d", stats.Sent, stats.OK, stats.Shed)
	}
}

// TestSaturateStopsAtCollapse: a server that sheds everything above a
// fixed service rate caps the ramp, and the search reports the curve.
func TestSaturateStopsAtCollapse(t *testing.T) {
	var inFlight atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inFlight.Add(1) > 16 {
			inFlight.Add(-1)
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		time.Sleep(5 * time.Millisecond) // ~3200 rps capacity across 16 slots
		inFlight.Add(-1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	res, err := Saturate(context.Background(), SaturationConfig{
		URL:          ts.URL,
		StartRPS:     100,
		StepDuration: 400 * time.Millisecond,
		Connections:  32,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps recorded")
	}
	last := res.Steps[len(res.Steps)-1]
	if last.Sustained && len(res.Steps) == maxSteps {
		t.Logf("server never collapsed within maxSteps: %+v", res)
	}
	if res.MaxSustainedRPS <= 0 {
		t.Fatalf("no sustained step: %+v", res)
	}
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i-1].Sustained == false {
			t.Fatalf("search continued past unsustained step %d: %+v", i-1, res.Steps)
		}
	}
}

// TestRecorderPoolReuse: consecutive Run calls (Saturate's ramp
// pattern) do not leak counts between steps through the recorder pool,
// even when the pool hands out a recorder that was returned dirty.
func TestRecorderPoolReuse(t *testing.T) {
	dirty := recorderPool.Get()
	dirty.V().Observe(metrics.Sample{Exec: 5 * time.Second})
	dirty.V().Drop()
	dirty.Put()

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	cfg := Config{
		URL:         ts.URL,
		Trace:       workload.Constant(50, time.Second, time.Second),
		SpeedFactor: 20,
		SLO:         time.Second,
		Connections: 4,
		Seed:        7,
	}
	first, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.OK == 0 || second.OK == 0 {
		t.Fatalf("runs served nothing: %+v / %+v", first, second)
	}
	// Equal offered load: if pooled recorders leaked state, the second
	// run's counts would include the first run's.
	if second.Sent > 2*first.Sent || second.SLOMissRate != 0 || first.SLOMissRate != 0 {
		t.Fatalf("second run looks contaminated: first=%+v second=%+v", first, second)
	}
}
