package telemetry

// bench_test.go pins the collector's hot path: Observe-side methods run
// on every request event in both data planes, so they must stay cheap
// and allocation-free after a function's first event; `go run
// ./benchmark --trace 1` reports it as telemetry.observe_ns.

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/metrics"
)

// BenchmarkCollectorObserve measures one request's full event footprint:
// arrival, batch submission (amortized over a batch of 8), and the
// served sample.
func BenchmarkCollectorObserve(b *testing.B) {
	c := New(Options{Window: time.Minute})
	c.Register("f", 100*time.Millisecond)
	s := metrics.Sample{Queue: 5 * time.Millisecond, Exec: 20 * time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * time.Millisecond
		c.RequestArrived("f", at)
		if i%8 == 0 {
			c.BatchSubmitted("f", 1, 8, at)
		}
		c.RequestServed("f", s, at)
	}
}

// BenchmarkCollectorObserveParallel is the gateway shape: many request
// goroutines feeding one collector.
func BenchmarkCollectorObserveParallel(b *testing.B) {
	c := New(Options{Window: time.Minute})
	c.Register("f", 100*time.Millisecond)
	s := metrics.Sample{Queue: 5 * time.Millisecond, Exec: 20 * time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		at := time.Duration(0)
		for pb.Next() {
			at += time.Millisecond
			c.RequestArrived("f", at)
			c.RequestServed("f", s, at)
		}
	})
}

// BenchmarkCollectorSnapshot measures the read side over a populated
// collector (exposition path; must not block writers for long).
func BenchmarkCollectorSnapshot(b *testing.B) {
	c := New(Options{Window: time.Minute})
	for fn := 0; fn < 8; fn++ {
		name := string(rune('a' + fn))
		c.Register(name, 100*time.Millisecond)
		for i := 0; i < 10000; i++ {
			at := time.Duration(i) * time.Millisecond
			c.RequestArrived(name, at)
			c.RequestServed(name, metrics.Sample{Exec: 20 * time.Millisecond}, at)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := c.Snapshot(); len(s.Functions) != 8 {
			b.Fatal("bad snapshot")
		}
	}
}
