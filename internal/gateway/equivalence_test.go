package gateway

// equivalence_test.go replaces the three cross-plane parity suites
// (batch-size regime, telemetry totals, first tiered cold start — each
// compared within loose tolerances, because the gateway had a lifecycle
// of its own). There is one lifecycle now, so the comparison is exact:
// the same arrivals through Engine.Run and through the gateway's live
// driver must produce the identical observer event stream — kinds,
// instance ids, batch sizes, timestamps, latency samples, allocations,
// sheds and tiered startup breakdowns, all through the one runtime.Tap.

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

func TestDriverEquivalence(t *testing.T) {
	const (
		duration = 24 * time.Second
		idle     = 3 * time.Second
	)
	// Two functions; each goes quiet for longer than the keep-alive, so
	// the script covers launch, batching, timeouts, scale-out under a
	// burst, idle reclaim and a second (DRAM-promoted) cold start.
	gap := func(rps float64) *workload.Trace {
		tr := workload.Constant(rps, duration, time.Second)
		for s := 8; s < 15; s++ {
			tr.RPS[s] = 0
		}
		return tr
	}
	fns := []struct {
		name, model string
		slo         time.Duration
		trace       *workload.Trace
	}{
		{"mnist", "MNIST", 500 * time.Millisecond, gap(40)},
		{"resnet", "ResNet-50", 400 * time.Millisecond, gap(90)},
	}
	storage := artifact.DefaultConfig()

	// Reference: the scripted run. The controller, policy and plan are
	// what Server.deploy sets up.
	live := newManual(t, Config{IdleTimeout: idle, Seed: 7, Storage: &storage})
	ref := newRecorder()
	eng := sim.New(&reactive{hold: time.Second}, sim.Config{Seed: 7, Duration: duration, Storage: &storage})
	eng.Observe(ref)
	for _, fn := range fns {
		m := model.MustGet(fn.model)
		fs := eng.AddFunction(sim.FunctionSpec{
			Name: fn.name, Model: m, SLO: fn.slo, Trace: fn.trace,
			Policy: coldstart.Fixed{KeepAlive: idle},
		})
		fs.SetCtrlState(&function{plan: scheduler.BuildPlan(
			scheduler.Function{Name: fn.name, Model: m, SLO: fn.slo},
			live.pred, scheduler.Options{MaxInstancesPerCall: 1})})
	}
	eng.Run()

	// Live: replay the reference's arrivals over the fake clock, each as
	// a blocking invocation.
	for _, fn := range fns {
		live.mustDeploy(fn.name, fn.model, fn.slo)
	}
	arrivals := 0
	for _, ev := range ref.events {
		if ev.Kind == runtime.EventArrived {
			arrivals++
			live.at(ev.At)
			live.invoke(ev.Fn)
		}
	}
	live.at(duration)

	// Run ends by dropping its backlog and closing the resource integral
	// at Duration; the live plane has no end. Compare everything before.
	// (Run also expires backlog on its ticks and the live plane only when
	// it flushes, so the script must not hold a request past the horizon.)
	before := func(evs []runtime.Event) []runtime.Event {
		for i, ev := range evs {
			if ev.At >= duration {
				return evs[:i]
			}
		}
		return evs
	}
	want, got := before(ref.events), before(live.rec.events)
	reclaims, batched, startups := 0, 0, 0
	for _, ev := range want {
		if ev.Kind == runtime.EventBatch && ev.Batch > 1 {
			batched++
		}
		if ev.Kind == runtime.EventDropped {
			t.Fatalf("the script drops a request at %v; it is meant to stay inside the hold horizon", ev.At)
		}
		if ev.Kind == runtime.EventReclaimed {
			reclaims++
		}
		if ev.Kind == runtime.EventStartup {
			startups++
		}
	}
	if arrivals < 1000 || len(want) < 3*arrivals || batched < 50 || reclaims < 2 || startups < 4 {
		t.Fatalf("script too small to mean anything: %d arrivals, %d events, %d batches, %d reclaims, %d cold starts",
			arrivals, len(want), batched, reclaims, startups)
	}
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			t.Fatalf("live stream ends after %d events; the run continues with %+v", i, want[i])
		case i >= len(want):
			t.Fatalf("run stream ends after %d events; the live plane continues with %+v", i, got[i])
		case want[i] != got[i]:
			t.Fatalf("streams diverge at event %d:\n  run:  %+v\n  live: %+v", i, want[i], got[i])
		}
	}
}
