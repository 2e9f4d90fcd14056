package infless

import (
	"testing"
	"time"
)

// TestReportDurationsExact: the Report is built from the snapshot's
// millisecond floats, yet every duration in it is the collector's own
// nanosecond value — converting back used to truncate, and came back
// 1 ns short for about a quarter of all values.
func TestReportDurationsExact(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 66,000,002 ns is the first duration from 66 ms up that truncation
	// returned one short.
	for _, fn := range []FunctionConfig{
		{Name: "small", Model: "MNIST", SLO: 66*time.Millisecond + 2},
		{Name: "large", Model: "ResNet-50", SLO: 230 * time.Millisecond},
	} {
		fn.Traffic = Traffic{RPS: 60}
		if err := p.Deploy(fn); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Functions) != 2 {
		t.Fatalf("report has %d functions, want 2", len(rep.Functions))
	}
	for _, fr := range rep.Functions {
		rec := p.col.Recorder(fr.Name)
		if rec.Served() == 0 || rec.Served() != fr.Served {
			t.Fatalf("%s: report served %d, collector %d", fr.Name, fr.Served, rec.Served())
		}
		cold, queue, exec := rec.Breakdown()
		for _, c := range []struct {
			field     string
			got, want time.Duration
		}{
			{"SLO", fr.SLO, rec.SLO()},
			{"MeanLatency", fr.MeanLatency, rec.Mean()},
			{"P50Latency", fr.P50Latency, rec.Percentile(0.50)},
			{"P95Latency", fr.P95Latency, rec.Percentile(0.95)},
			{"P99Latency", fr.P99Latency, rec.Percentile(0.99)},
			{"P999Latency", fr.P999Latency, rec.Percentile(0.999)},
			{"MeanCold", fr.MeanCold, cold},
			{"MeanQueue", fr.MeanQueue, queue},
			{"MeanExec", fr.MeanExec, exec},
		} {
			if c.got != c.want {
				t.Errorf("%s.%s = %d ns, the collector has %d ns", fr.Name, c.field, c.got, c.want)
			}
		}
	}
}
