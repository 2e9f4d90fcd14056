package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tanklab/infless/internal/perf"
)

func TestSampleTotal(t *testing.T) {
	s := Sample{Cold: time.Second, Queue: 2 * time.Second, Exec: 3 * time.Second}
	if s.Total() != 6*time.Second {
		t.Fatalf("total = %v", s.Total())
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewLatencyRecorder(200 * time.Millisecond)
	r.Observe(Sample{Queue: 50 * time.Millisecond, Exec: 100 * time.Millisecond}) // 150ms ok
	r.Observe(Sample{Cold: time.Second, Exec: 100 * time.Millisecond})            // violation + cold
	r.Drop()
	if r.Served() != 2 || r.Dropped() != 1 {
		t.Fatalf("served/dropped = %d/%d", r.Served(), r.Dropped())
	}
	if got := r.ViolationRate(); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("violation rate = %v, want 2/3", got)
	}
	if got := r.ColdRate(); got != 0.5 {
		t.Fatalf("cold rate = %v", got)
	}
	cold, queue, exec := r.Breakdown()
	if cold != 500*time.Millisecond || queue != 25*time.Millisecond || exec != 100*time.Millisecond {
		t.Fatalf("breakdown = %v %v %v", cold, queue, exec)
	}
	if r.SLO() != 200*time.Millisecond {
		t.Fatal("slo accessor")
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewLatencyRecorder(time.Second)
	if r.Mean() != 0 || r.Percentile(0.99) != 0 || r.ViolationRate() != 0 || r.ColdRate() != 0 {
		t.Fatal("empty recorder should return zeros")
	}
	c, q, e := r.Breakdown()
	if c != 0 || q != 0 || e != 0 {
		t.Fatal("empty breakdown should be zero")
	}
}

func TestPercentileAccuracy(t *testing.T) {
	r := NewLatencyRecorder(0)
	// 1..1000 ms uniform.
	for i := 1; i <= 1000; i++ {
		r.Observe(Sample{Exec: time.Duration(i) * time.Millisecond})
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := float64(q * 1000)
		got := r.Percentile(q).Seconds() * 1000
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("p%.0f = %.1fms, want ~%.0fms", q*100, got, want)
		}
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	r := NewLatencyRecorder(0)
	for i := 1; i < 500; i++ {
		r.Observe(Sample{Exec: time.Duration(i*i) * time.Microsecond})
	}
	f := func(a, b uint8) bool {
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return r.Percentile(qa) <= r.Percentile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDropsCountAsViolations(t *testing.T) {
	r := NewLatencyRecorder(time.Second)
	for i := 0; i < 9; i++ {
		r.Observe(Sample{Exec: time.Millisecond})
	}
	r.Drop()
	if got := r.ViolationRate(); got != 0.1 {
		t.Fatalf("violation rate with drop = %v, want 0.1", got)
	}
}

func TestMerge(t *testing.T) {
	a := NewLatencyRecorder(time.Second)
	b := NewLatencyRecorder(time.Second)
	a.Observe(Sample{Exec: 100 * time.Millisecond})
	b.Observe(Sample{Exec: 2 * time.Second})
	b.Drop()
	a.Merge(b)
	if a.Served() != 2 || a.Dropped() != 1 {
		t.Fatalf("merged served/dropped = %d/%d", a.Served(), a.Dropped())
	}
	if got := a.ViolationRate(); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("merged violation rate = %v", got)
	}
	a.Merge(nil) // no-op
	if a.Served() != 2 {
		t.Fatal("nil merge changed state")
	}
}

func TestBucketBoundaries(t *testing.T) {
	// Tiny and huge values must not panic and must land in range.
	r := NewLatencyRecorder(0)
	r.Observe(Sample{Exec: time.Nanosecond})
	r.Observe(Sample{Exec: 24 * time.Hour})
	if p := r.Percentile(1.0); p < time.Hour {
		t.Fatalf("max percentile = %v, want clamped to top bucket", p)
	}
	if p := r.Percentile(0.01); p > time.Millisecond {
		t.Fatalf("min percentile = %v", p)
	}
}

// bucketOf answers from tables derived from bucketFormula; it must agree
// with the formula everywhere, so that no figure's bins move.
func TestBucketOfMatchesFormula(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := bucketOf(d), bucketFormula(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, bucketFormula = %d", int64(d), got, want)
		}
	}
	for b := 1; b < HistBuckets; b++ {
		first := time.Duration(bucketFirst[b])
		if got := bucketFormula(first - 1); got != b-1 {
			t.Fatalf("bucketFormula(%d) = %d just below bucket %d's first duration: not monotone", int64(first-1), got, b)
		}
		for d := first - 2; d <= first+2; d++ {
			check(d)
		}
	}
	for _, d := range []time.Duration{-1, 0, 1, 999, 1000, 1001, time.Hour, 2 * time.Hour, math.MaxInt64} {
		check(d)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000_000; i++ {
		check(time.Duration(rng.Int63n(1 << rng.Intn(63))))
	}
}

func TestHistogramAddDoesNotAllocate(t *testing.T) {
	var h Histogram
	h.Add(time.Millisecond)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		i++
		h.Add(time.Duration(i) * 37 * time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("Histogram.Add allocates %v times after the first Add", allocs)
	}
}

func TestResourceIntegrator(t *testing.T) {
	var ri ResourceIntegrator
	ri.Update(0, perf.Resources{CPU: 4, GPU: 2})
	ri.Update(10*time.Second, perf.Resources{CPU: 8, GPU: 0})
	ri.Finish(20 * time.Second)
	if got := ri.CPUCoreSeconds(); got != 4*10+8*10 {
		t.Fatalf("cpu-seconds = %v", got)
	}
	if got := ri.GPUUnitSeconds(); got != 2*10 {
		t.Fatalf("gpu-seconds = %v", got)
	}
	want := perf.Beta*120 + 20
	if got := ri.WeightedSeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("weighted = %v, want %v", got, want)
	}
}

func TestResourceIntegratorOutOfOrderIgnored(t *testing.T) {
	var ri ResourceIntegrator
	ri.Update(10*time.Second, perf.Resources{CPU: 1})
	ri.Update(5*time.Second, perf.Resources{CPU: 2}) // no negative dt credit
	ri.Finish(15 * time.Second)
	if ri.CPUCoreSeconds() != 2*10 {
		t.Fatalf("cpu-seconds = %v, want 20", ri.CPUCoreSeconds())
	}
}

// TestRecorderReset: Reset returns a used recorder to its zero state
// under a new SLO while keeping the histogram's bucket storage, so
// pooled recorders (internal/loadgen) neither leak old counts nor
// re-allocate buckets on reuse.
func TestRecorderReset(t *testing.T) {
	r := NewLatencyRecorder(10 * time.Millisecond)
	for i := 0; i < 100; i++ {
		r.Observe(Sample{Cold: time.Millisecond, Queue: time.Millisecond, Exec: 20 * time.Millisecond})
	}
	r.Drop()
	if r.Served() != 100 || r.Dropped() != 1 || r.ViolationRate() == 0 {
		t.Fatalf("precondition: recorder should be dirty, got served=%d dropped=%d", r.Served(), r.Dropped())
	}
	buckets := &r.hist.counts[0]

	r.Reset(time.Second)
	if r.Served() != 0 || r.Dropped() != 0 || r.ColdRate() != 0 || r.ViolationRate() != 0 {
		t.Fatalf("reset recorder still carries counts: served=%d dropped=%d", r.Served(), r.Dropped())
	}
	if r.SLO() != time.Second {
		t.Fatalf("reset SLO = %v, want 1s", r.SLO())
	}
	if r.Percentile(0.99) != 0 || r.Mean() != 0 {
		t.Fatal("reset recorder still reports latencies")
	}
	if c, q, e := r.Breakdown(); c != 0 || q != 0 || e != 0 {
		t.Fatal("reset recorder still reports a breakdown")
	}
	if &r.hist.counts[0] != buckets {
		t.Fatal("Reset re-allocated the histogram bucket slice")
	}

	// The reused recorder behaves exactly like a fresh one.
	r.Observe(Sample{Exec: 2 * time.Second})
	if r.Served() != 1 || r.ViolationRate() != 1 {
		t.Fatalf("reused recorder miscounts: served=%d violations=%v", r.Served(), r.ViolationRate())
	}
}

// TestHistogramReset zeroes counts in place.
func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Add(time.Millisecond)
	h.Add(time.Second)
	h.Reset()
	if h.total != 0 {
		t.Fatalf("reset histogram count = %d", h.total)
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("reset histogram still reports quantiles")
	}
	h.Add(time.Millisecond)
	if h.total != 1 {
		t.Fatalf("reused histogram count = %d", h.total)
	}
}
