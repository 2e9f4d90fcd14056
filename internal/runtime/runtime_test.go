package runtime

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/perf"
)

func TestBatchTimeout(t *testing.T) {
	if got := BatchTimeout(200*time.Millisecond, 50*time.Millisecond); got != 150*time.Millisecond {
		t.Fatalf("timeout = %v, want 150ms", got)
	}
	// Execution longer than the SLO floors at 1ms rather than going
	// negative (the queue must still flush).
	if got := BatchTimeout(50*time.Millisecond, 90*time.Millisecond); got != time.Millisecond {
		t.Fatalf("floored timeout = %v, want 1ms", got)
	}
}

func TestBatchPolicy(t *testing.T) {
	p := BatchPolicy{SLO: 200 * time.Millisecond}
	if got := p.Timeout(20 * time.Millisecond); got != 180*time.Millisecond {
		t.Fatalf("policy timeout = %v", got)
	}

	// Empty instance, short wait: admissible.
	if p.ProjectedViolation(0, 4, false, 20*time.Millisecond, 0, 0) {
		t.Fatal("empty instance should admit")
	}
	// Deep backlog: (8+4)/4 = 3 batches ahead plus the in-flight one, at
	// 60ms each = 240ms > 200ms SLO.
	if !p.ProjectedViolation(8, 4, true, 60*time.Millisecond, 0, 0) {
		t.Fatal("deep backlog should be rejected")
	}
	// Cold wait counts against the budget.
	if !p.ProjectedViolation(0, 4, false, 20*time.Millisecond, 0, 190*time.Millisecond) {
		t.Fatal("cold wait past the SLO should be rejected")
	}
}

func TestScaleAheadTarget(t *testing.T) {
	// alpha = 0.8 adds 25% of demand as headroom on top of the residual.
	if got := ScaleAheadTarget(10, 40, 0.8); got != 20 {
		t.Fatalf("target = %v, want 10 + 40*0.25 = 20", got)
	}
	// alpha = 1 disables headroom: provision exactly the residual.
	if got := ScaleAheadTarget(10, 40, 1); got != 10 {
		t.Fatalf("target = %v, want residual only at alpha=1", got)
	}
	// Out-of-range alphas fall back to DefaultAlpha.
	want := ScaleAheadTarget(10, 40, DefaultAlpha)
	for _, bad := range []float64{0, -1, 1.5} {
		if got := ScaleAheadTarget(10, 40, bad); got != want {
			t.Fatalf("alpha=%v target = %v, want DefaultAlpha fallback %v", bad, got, want)
		}
	}
}

// countObserver counts events to verify the fan-out.
type countObserver struct {
	NopObserver
	served, dropped, launched int
}

func (c *countObserver) RequestServed(string, metrics.Sample, time.Duration) { c.served++ }
func (c *countObserver) RequestDropped(string, time.Duration)                { c.dropped++ }
func (c *countObserver) InstanceLaunched(string, int, bool, time.Duration, time.Duration) {
	c.launched++
}

func TestObserversFanOut(t *testing.T) {
	a, b := &countObserver{}, &countObserver{}
	os := Observers{a, b}
	os.RequestArrived("f", 0)
	os.RequestEnqueued("f", 1, 0)
	os.BatchSubmitted("f", 1, 4, 0)
	os.RequestServed("f", metrics.Sample{}, 0)
	os.RequestDropped("f", 0)
	os.InstanceLaunched("f", 1, true, time.Second, 0)
	os.InstanceReclaimed("f", 1, 0)
	os.AllocationChanged(perf.Resources{CPU: 2}, 0)
	for _, o := range []*countObserver{a, b} {
		if o.served != 1 || o.dropped != 1 || o.launched != 1 {
			t.Fatalf("fan-out missed events: %+v", o)
		}
	}
}
