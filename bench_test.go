// bench_test.go exposes one Go benchmark per table and figure of the
// INFless paper's evaluation, plus micro-benchmarks of the hot control
// paths. Each figure benchmark regenerates its experiment in quick mode
// and reports the headline metric; run the full-length versions through
// cmd/infless-bench -full. Performance is tracked by `go run ./benchmark`
// (`make bench`), not by these.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig11 -benchtime=1x
package infless_test

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/bench"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/runtime"
)

// benchOpts keeps figure regeneration fast enough for `go test -bench=.`.
var benchOpts = bench.Options{Quick: true, Seed: 1}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tb := e.Run(benchOpts)
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// --- one benchmark per paper table / figure ---------------------------

func BenchmarkTable1ModelZoo(b *testing.B)            { runExperiment(b, "table1") }
func BenchmarkFig2aLambdaHeatmap(b *testing.B)        { runExperiment(b, "fig2a") }
func BenchmarkFig2bLambdaBatchHeatmap(b *testing.B)   { runExperiment(b, "fig2b") }
func BenchmarkFig2cOverProvisioning(b *testing.B)     { runExperiment(b, "fig2c") }
func BenchmarkFig2dSLODistribution(b *testing.B)      { runExperiment(b, "fig2d") }
func BenchmarkFig3aInstanceCounts(b *testing.B)       { runExperiment(b, "fig3a") }
func BenchmarkFig3bMotivationThroughput(b *testing.B) { runExperiment(b, "fig3b") }
func BenchmarkFig7OperatorStats(b *testing.B)         { runExperiment(b, "fig7") }
func BenchmarkFig8COPAccuracy(b *testing.B)           { runExperiment(b, "fig8") }
func BenchmarkFig11StressAblation(b *testing.B)       { runExperiment(b, "fig11") }
func BenchmarkFig12aTraceThroughput(b *testing.B)     { runExperiment(b, "fig12a") }
func BenchmarkFig12bSLOThroughput(b *testing.B)       { runExperiment(b, "fig12b") }
func BenchmarkFig13ConfigMix(b *testing.B)            { runExperiment(b, "fig13") }
func BenchmarkFig14Provisioning(b *testing.B)         { runExperiment(b, "fig14") }
func BenchmarkFig15SLOViolations(b *testing.B)        { runExperiment(b, "fig15") }
func BenchmarkFig16ColdStartPolicies(b *testing.B)    { runExperiment(b, "fig16") }
func BenchmarkFig17aSchedulingOverhead(b *testing.B)  { runExperiment(b, "fig17a") }
func BenchmarkFig17bFragmentation(b *testing.B)       { runExperiment(b, "fig17b") }
func BenchmarkFig18aScaleFunctions(b *testing.B)      { runExperiment(b, "fig18a") }
func BenchmarkFig18bScaleSLO(b *testing.B)            { runExperiment(b, "fig18b") }
func BenchmarkTable4Cost(b *testing.B)                { runExperiment(b, "table4") }
func BenchmarkAlphaSweep(b *testing.B)                { runExperiment(b, "alpha") }

// --- control-path micro-benchmarks -------------------------------------

// BenchmarkCOPPrediction measures one combined-operator-profiling latency
// estimate (the per-function planning hot path).
func BenchmarkCOPPrediction(b *testing.B) {
	pred := profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions()))
	m := model.MustGet("Bert-v1") // largest DAG in the zoo
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pred.Predict(m, 8, resGPU2)
	}
}

var resGPU2 = perf.Resources{GPU: 2}

// BenchmarkRateEstimator measures the shared arrival-rate estimator both
// data planes run on every request (Observe) and every scaling decision
// (Estimate). Engine.Enqueue/trySubmit micro-benchmarks live next to the
// engine in internal/sim/bench_test.go.
func BenchmarkRateEstimator(b *testing.B) {
	re := runtime.NewRateEstimator(10 * time.Second)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * 100 * time.Microsecond // 10k RPS
		re.Observe(now)
		if i%16 == 0 {
			sink += re.Estimate(now)
		}
	}
	benchSink = sink
}

var benchSink float64
