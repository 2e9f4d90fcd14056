package sim_test

// benchlarge_test.go benchmarks a full engine run at scale: the INFless
// controller serving constant high-rate traffic for several functions on
// a multi-server cluster. This exercises the simulator's innermost loop
// end to end — event scheduling, batch queues, telemetry sampling and
// cluster accounting; the committed baseline for simulator speed is
// `go run ./benchmark --workload sim_fleet`.

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

// BenchmarkEngineRunLargeScale runs a 10-second simulated stress test:
// three OSVT-style functions at 2,000 RPS each on a 16-server cluster.
// ns/op is the wall cost of one full Run (hundreds of thousands of
// events); allocs/op tracks the event-object churn the pool eliminates.
func BenchmarkEngineRunLargeScale(b *testing.B) {
	dur := 10 * time.Second
	specs := []struct {
		name  string
		model string
	}{
		{"detect", "SSD"},
		{"license", "MobileNet"},
		{"classify", "ResNet-50"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var served uint64
	for i := 0; i < b.N; i++ {
		e := sim.New(core.New(core.Options{}), sim.Config{
			Cluster:  cluster.New(cluster.Options{Servers: 16}),
			Duration: dur,
			Seed:     1,
		})
		for _, s := range specs {
			e.AddFunction(sim.FunctionSpec{
				Name:  s.name,
				Model: model.MustGet(s.model),
				SLO:   200 * time.Millisecond,
				Trace: workload.Constant(2000, dur, time.Minute),
			})
		}
		res := e.Run()
		served = res.Served()
	}
	b.StopTimer()
	if served == 0 {
		b.Fatal("benchmark run served nothing")
	}
	b.ReportMetric(float64(served), "served/op")
}
