package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/runtime"
)

// The collector must satisfy the plane-facing observer contract.
var _ runtime.Observer = (*Collector)(nil)
var _ runtime.Observer = (*TraceWriter)(nil)

func feed(c *Collector) {
	c.Register("f", 100*time.Millisecond)
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		c.RequestArrived("f", at)
		c.BatchSubmitted("f", 1, 4, at)
		lat := 50 * time.Millisecond
		if i%10 == 0 {
			lat = 150 * time.Millisecond // 10% violations
		}
		c.RequestServed("f", metrics.Sample{Queue: 10 * time.Millisecond, Exec: lat - 10*time.Millisecond}, at)
	}
	c.RequestDropped("f", time.Second)
	c.InstanceLaunched("f", 1, true, 2*time.Second, 0)
	c.InstanceLaunched("f", 2, false, 50*time.Millisecond, time.Second)
	c.InstanceReclaimed("f", 2, 2*time.Second)
}

func TestCollectorSnapshot(t *testing.T) {
	c := New(Options{Window: time.Minute})
	feed(c)
	s := c.Snapshot()
	if len(s.Functions) != 1 {
		t.Fatalf("functions = %d", len(s.Functions))
	}
	f := s.Functions[0]
	if f.Name != "f" || f.Served != 100 || f.Dropped != 1 || f.Arrived != 100 {
		t.Fatalf("counts: %+v", f)
	}
	if f.Violations != 10 {
		t.Fatalf("violations = %d, want 10", f.Violations)
	}
	wantViol := float64(10+1) / 101
	if diff := f.SLOViolationRate - wantViol; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("violation rate = %g, want %g", f.SLOViolationRate, wantViol)
	}
	// p50 must sit near 50ms, p99/p999 near 150ms (log-bucket tolerance).
	if f.P50Ms < 45 || f.P50Ms > 60 {
		t.Errorf("p50 = %gms", f.P50Ms)
	}
	if f.P99Ms < 140 || f.P99Ms > 170 {
		t.Errorf("p99 = %gms", f.P99Ms)
	}
	if f.P999Ms < f.P99Ms {
		t.Errorf("p999 %g < p99 %g", f.P999Ms, f.P99Ms)
	}
	if f.MeanBatch != 4 || f.Batches != 100 || f.BatchServed[4] != 400 {
		t.Errorf("batch stats: mean %g batches %d hist %v", f.MeanBatch, f.Batches, f.BatchServed)
	}
	if f.Launches != 2 || f.ColdLaunches != 1 || f.LiveInstances != 1 {
		t.Errorf("launch stats: %d/%d live %d", f.Launches, f.ColdLaunches, f.LiveInstances)
	}
	if len(f.ColdTimeline) != 2 || !f.ColdTimeline[0].Cold || f.ColdTimeline[1].Cold {
		t.Errorf("timeline: %+v", f.ColdTimeline)
	}
	if f.QueueP50Ms < 9 || f.QueueP50Ms > 12 {
		t.Errorf("queue p50 = %gms", f.QueueP50Ms)
	}
}

func TestCollectorRollingWindow(t *testing.T) {
	c := New(Options{Window: time.Minute})
	// 10 rps for the first minute, then silence until t=10min.
	for i := 0; i < 600; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		c.RequestArrived("f", at)
		c.RequestServed("f", metrics.Sample{Exec: time.Millisecond}, at)
	}
	s := c.SnapshotAt(time.Minute)
	w := s.Functions[0].Window
	if w.ArrivalRate < 8 || w.ArrivalRate > 11 {
		t.Errorf("arrival rate during load = %g, want ~10", w.ArrivalRate)
	}
	if w.SLOAttainment != 1 {
		t.Errorf("attainment = %g (no SLO set)", w.SLOAttainment)
	}
	// Ten minutes later the window must have drained to ~0.
	s = c.SnapshotAt(10 * time.Minute)
	w = s.Functions[0].Window
	if w.ArrivalRate != 0 || w.ServedRate != 0 {
		t.Errorf("window did not drain: %+v", w)
	}
	// Lifetime totals survive.
	if s.Functions[0].Served != 600 {
		t.Errorf("lifetime served = %d", s.Functions[0].Served)
	}
}

func TestCollectorWarmup(t *testing.T) {
	c := New(Options{})
	c.SetWarmup(time.Second)
	c.RequestServed("f", metrics.Sample{Exec: time.Millisecond}, 500*time.Millisecond)
	c.RequestDropped("f", 500*time.Millisecond)
	c.RequestServed("f", metrics.Sample{Exec: time.Millisecond}, 2*time.Second)
	f := c.Snapshot().Function("f")
	if f == nil || f.Served != 1 || f.Dropped != 0 {
		t.Fatalf("warmup not excluded: %+v", f)
	}
	// The engine moves the cut-off of a collector it was handed.
	c.SetWarmup(3 * time.Second)
	c.RequestServed("f", metrics.Sample{Exec: time.Millisecond}, 2*time.Second)
	if f := c.Snapshot().Function("f"); f.Served != 1 {
		t.Fatalf("served %d after SetWarmup(3s), want the late sample excluded", f.Served)
	}
	if c.Snapshot().Function("g") != nil {
		t.Fatal("a row for a function nobody observed")
	}
}

func TestCollectorResourceSeries(t *testing.T) {
	c := New(Options{ResourceSampleEvery: 10 * time.Second})
	c.AllocationChanged(perf.Resources{}, 0)
	c.AllocationChanged(perf.Resources{CPU: 4, GPU: 2}, 5*time.Second)
	c.AllocationChanged(perf.Resources{CPU: 8, GPU: 2}, 25*time.Second)
	c.AllocationChanged(perf.Resources{CPU: 8, GPU: 2}, 60*time.Second)
	s := c.Snapshot()
	// Boundaries at 0,10,...,60 plus change points at 5s and 25s => 9.
	if len(s.Resources.Series) != 9 {
		t.Fatalf("series has %d points: %+v", len(s.Resources.Series), s.Resources.Series)
	}
	at := func(ms float64) ResourcePoint {
		t.Helper()
		for _, p := range s.Resources.Series {
			if p.AtMs == ms {
				return p
			}
		}
		t.Fatalf("no series point at %gms: %+v", ms, s.Resources.Series)
		return ResourcePoint{}
	}
	if p := at(5_000); p.CPUCores != 4 {
		t.Errorf("change point at 5s = %+v, want CPU 4", p)
	}
	if p := at(10_000); p.CPUCores != 4 {
		t.Errorf("sample at 10s = %+v, want CPU 4", p)
	}
	if p := at(30_000); p.CPUCores != 8 {
		t.Errorf("sample at 30s = %+v, want CPU 8", p)
	}
	// Integral: 0..5s zero, 5..25s 4 cores, 25..60s 8 cores = 80+280.
	if got := s.Resources.CPUCoreSeconds; got < 359 || got > 361 {
		t.Errorf("cpu core-seconds = %g, want 360", got)
	}
	if s.Resources.CPUCores != 8 || s.Resources.GPUUnits != 2 {
		t.Errorf("current allocation = %d/%d", s.Resources.CPUCores, s.Resources.GPUUnits)
	}
}

// TestCollectorChangePointSeries pins the default mode (no periodic
// sampling): every allocation change still lands in the series, so the
// gateway's Figure 14-style view works without configuration.
func TestCollectorChangePointSeries(t *testing.T) {
	c := New(Options{})
	c.AllocationChanged(perf.Resources{CPU: 4}, time.Second)
	c.AllocationChanged(perf.Resources{CPU: 4}, 2*time.Second) // no change, no point
	c.AllocationChanged(perf.Resources{CPU: 2}, 3*time.Second)
	s := c.Snapshot()
	if len(s.Resources.Series) != 2 {
		t.Fatalf("series = %+v, want 2 change points", s.Resources.Series)
	}
	if s.Resources.Series[0].CPUCores != 4 || s.Resources.Series[1].CPUCores != 2 {
		t.Errorf("series = %+v", s.Resources.Series)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := New(Options{})
	feed(c)
	s := c.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion {
		t.Errorf("schemaVersion = %d", back.SchemaVersion)
	}
	if len(back.Functions) != 1 || back.Functions[0].Served != s.Functions[0].Served ||
		back.Functions[0].P99Ms != s.Functions[0].P99Ms ||
		back.Functions[0].BatchServed[4] != s.Functions[0].BatchServed[4] {
		t.Errorf("round trip lost data: %+v", back.Functions)
	}
	for _, key := range []string{`"schemaVersion"`, `"functions"`, `"p99Ms"`, `"sloViolationRate"`, `"window"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("JSON lacks %s", key)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	c := New(Options{})
	feed(c)
	var b bytes.Buffer
	if err := WritePrometheus(&b, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`infless_requests_total{function="f",outcome="served"} 100`,
		`infless_requests_total{function="f",outcome="dropped"} 1`,
		`infless_slo_violations_total{function="f"} 10`,
		`infless_cold_starts_total{function="f"} 1`,
		`infless_instances{function="f"} 1`,
		`infless_batch_requests_total{function="f",size="4"} 400`,
		`infless_request_latency_seconds_bucket{function="f",le="+Inf"} 100`,
		`infless_request_latency_seconds_count{function="f"} 100`,
		`# TYPE infless_request_latency_seconds histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	// Histogram buckets must be cumulative (monotone non-decreasing).
	last := uint64(0)
	for _, f := range c.Snapshot().Functions {
		for _, bk := range f.LatencyBuckets {
			if bk.CumulativeCount < last {
				t.Fatalf("bucket counts not cumulative: %d after %d", bk.CumulativeCount, last)
			}
			last = bk.CumulativeCount
		}
	}
}

func TestTraceWriterJSONL(t *testing.T) {
	var b bytes.Buffer
	tw := NewTraceWriter(&b)
	tw.RequestArrived("f", 10*time.Millisecond)
	tw.RequestServed("f", metrics.Sample{Cold: time.Millisecond, Queue: 2 * time.Millisecond, Exec: 3 * time.Millisecond}, 20*time.Millisecond)
	tw.InstanceLaunched("f", 3, true, 900*time.Millisecond, 5*time.Millisecond)
	tw.AllocationChanged(perf.Resources{CPU: 2, GPU: 1}, 6*time.Millisecond)
	// The two optional hooks reach the writer through the same fan-out
	// type assertions every observer gets.
	obs := runtime.Observers{tw}
	obs.RequestShed("f", 30*time.Millisecond)
	obs.InstanceStartup("f", 3, artifact.Breakdown{From: artifact.TierSSD, Boot: 900 * time.Millisecond,
		Load: 40 * time.Millisecond, Promote: 5 * time.Millisecond}, 5*time.Millisecond)

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines", len(lines))
	}
	var evs []TraceEvent
	for _, ln := range lines {
		var e TraceEvent
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad JSONL %q: %v", ln, err)
		}
		evs = append(evs, e)
	}
	if evs[0].Event != "arrived" || evs[0].Fn != "f" || evs[0].AtMs != 10 {
		t.Errorf("arrived event: %+v", evs[0])
	}
	if evs[1].Event != "served" || evs[1].LatencyMs != 6 || evs[1].QueueMs != 2 {
		t.Errorf("served event: %+v", evs[1])
	}
	if evs[2].Event != "launched" || !evs[2].Cold || evs[2].Instance != 3 || evs[2].StartDelayMs != 900 {
		t.Errorf("launched event: %+v", evs[2])
	}
	if evs[3].Event != "alloc" || evs[3].CPUCores != 2 || evs[3].GPUUnits != 1 {
		t.Errorf("alloc event: %+v", evs[3])
	}
	if evs[4].Event != "shed" || evs[4].Fn != "f" || evs[4].AtMs != 30 {
		t.Errorf("shed event: %+v", evs[4])
	}
	if evs[5].Event != "startup" || evs[5].Instance != 3 || evs[5].Tier != "ssd" ||
		evs[5].BootMs != 900 || evs[5].LoadMs != 40 || evs[5].PromoteMs != 5 {
		t.Errorf("startup event: %+v", evs[5])
	}
}

// scriptFns are the functions of the concurrency script, in name order.
var scriptFns = []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}

// scriptRounds is the script's length: one request per function per round.
const scriptRounds = 4000

// feedRound feeds round i of the script: one request per function, in
// name order, each arriving and then being answered, with batches,
// launches, reclaims, sheds and allocation changes mixed in. Between any
// two events the functions' arrival counts therefore never increase
// along the name order and differ by at most one.
func feedRound(c *Collector, i int) {
	at := time.Duration(i) * time.Millisecond
	for k, fn := range scriptFns {
		c.RequestArrived(fn, at)
		switch (i + k) % 16 {
		case 0:
			c.RequestDropped(fn, at)
			c.RequestShed(fn, at)
		case 1:
			c.InstanceLaunched(fn, i, i%3 == 0, time.Second, at)
			c.InstanceStartup(fn, i, artifact.Breakdown{From: artifact.TierSSD, Boot: time.Second, Load: time.Second}, at)
			c.AllocationChanged(perf.Resources{CPU: 1 + i%7, GPU: k}, at)
			fallthrough
		default:
			c.BatchSubmitted(fn, 1, 1+i%4, at)
			c.RequestServed(fn, metrics.Sample{Queue: time.Duration(k) * time.Millisecond, Exec: time.Duration(1+i%90) * time.Millisecond}, at)
		}
		if (i+k)%16 == 9 {
			c.InstanceReclaimed(fn, i, at)
		}
	}
}

// TestCollectorSnapshotDuringEvents overlaps snapshots with events: one
// goroutine feeds the script while two others read. Every document must
// be one instant of the stream — per function, and across functions —
// and the readers must not disturb the result.
func TestCollectorSnapshotDuringEvents(t *testing.T) {
	const end = scriptRounds * time.Millisecond
	newCollector := func() *Collector {
		c := New(Options{Window: time.Minute, ResourceSampleEvery: 100 * time.Millisecond})
		for _, fn := range scriptFns {
			c.Register(fn, 50*time.Millisecond)
		}
		return c
	}
	want := newCollector()
	for i := 0; i < scriptRounds; i++ {
		feedRound(want, i)
	}

	c := newCollector()
	halfway := make(chan struct{}) // closed by the feeder at mid-script
	fed := make(chan struct{})     // closed by the feeder at the end
	sawHalf := make(chan struct{}, 2)
	var readers sync.WaitGroup
	reader := func(extra func(Snapshot)) {
		defer readers.Done()
		last := make([]uint64, len(scriptFns))
		reported := false
		defer func() {
			if !reported { // a reader that failed must not leave the feeder waiting
				sawHalf <- struct{}{}
			}
		}()
		for {
			pastHalf, done := false, false
			select {
			case <-halfway:
				pastHalf = true
			default:
			}
			select {
			case <-fed:
				done = true
			default:
			}
			s := c.SnapshotAt(end)
			if len(s.Functions) != len(scriptFns) {
				t.Errorf("snapshot has %d functions", len(s.Functions))
				return
			}
			for k, f := range s.Functions {
				if f.Served+f.Dropped > f.Arrived || f.Shed > f.Dropped {
					t.Errorf("%s: served %d + dropped %d (shed %d) of %d arrived", f.Name, f.Served, f.Dropped, f.Shed, f.Arrived)
					return
				}
				if f.Arrived < last[k] {
					t.Errorf("%s: arrived went from %d to %d", f.Name, last[k], f.Arrived)
					return
				}
				last[k] = f.Arrived
				if first := s.Functions[0].Arrived; f.Arrived > first || f.Arrived+1 < first ||
					(k > 0 && f.Arrived > s.Functions[k-1].Arrived) {
					t.Errorf("rows from different instants: %s arrived %d, f0 %d", f.Name, f.Arrived, first)
					return
				}
			}
			extra(s)
			if pastHalf && !reported {
				reported = true
				sawHalf <- struct{}{}
			}
			if done {
				return
			}
		}
	}
	readers.Add(2)
	go reader(func(s Snapshot) {
		if err := WritePrometheus(io.Discard, s); err != nil {
			t.Errorf("WritePrometheus: %v", err)
		}
	})
	go reader(func(s Snapshot) {
		for _, f := range s.Functions {
			if rec := c.Recorder(f.Name); rec == nil || rec.Served() < f.Served {
				t.Errorf("%s: Recorder is behind the snapshot taken before it", f.Name)
			}
		}
	})
	for i := 0; i < scriptRounds; i++ {
		if i == scriptRounds/2 {
			// Both readers take a snapshot of the half-fed collector before
			// the rest arrives, however the scheduler treats them.
			close(halfway)
			<-sawHalf
			<-sawHalf
		}
		feedRound(c, i)
	}
	close(fed)
	readers.Wait()

	if got, want := c.SnapshotAt(end), want.SnapshotAt(end); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot after concurrent reads differs from the single-threaded one:\n got %+v\nwant %+v", got, want)
	}
}
