package scheduler

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
)

// BenchmarkScheduleLargeScale is the Figure 17a hot path at full scale:
// one Schedule call placing >= 1,000 instances on the paper's
// 2,000-server simulation cluster. The per-placement cost is ns/op
// divided by the placement count reported in the PLACED metric; the
// committed baseline is `go run ./benchmark --workload sched_scale`.
func BenchmarkScheduleLargeScale(b *testing.B) {
	fn := Function{Name: "resnet", Model: model.MustGet("ResNet-50"), SLO: 200 * time.Millisecond}
	p := BuildPlan(fn, testPred, Options{MaxInstancesPerCall: 1000})
	b.ReportAllocs()
	b.ResetTimer()
	placed := 0
	for i := 0; i < b.N; i++ {
		cl := cluster.LargeScale()
		ds, _ := p.Schedule(1e12, cl)
		placed = len(ds)
	}
	b.StopTimer()
	if placed < 1000 {
		b.Fatalf("placed %d instances, want >= 1000", placed)
	}
	b.ReportMetric(float64(placed), "placed/op")
}

// BenchmarkScheduleLargeScaleMixed schedules a rotating mix of models
// (distinct plans, memory footprints and feasible grids) so the
// placement loop cannot ride a single candidate shape.
func BenchmarkScheduleLargeScaleMixed(b *testing.B) {
	names := []string{"ResNet-50", "MobileNet", "TextCNN-69", "SSD"}
	plans := make([]*Plan, len(names))
	for i, n := range names {
		fn := Function{Name: n, Model: model.MustGet(n), SLO: 300 * time.Millisecond}
		plans[i] = BuildPlan(fn, testPred, Options{MaxInstancesPerCall: 300})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := cluster.LargeScale()
		for _, p := range plans {
			p.Schedule(1e12, cl)
		}
	}
}
