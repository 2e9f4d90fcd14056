package scheduler

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
)

var testPred = func() Predictor {
	opts := profiler.DefaultDBOptions()
	opts.NoiseSD = 0
	return NewPredictorCache(profiler.NewPredictor(profiler.NewDB(opts)))
}()

func resnetFn() Function {
	return Function{Name: "resnet", Model: model.MustGet("ResNet-50"), SLO: 200 * time.Millisecond}
}

func TestBuildPlanFiltersInfeasible(t *testing.T) {
	p := BuildPlan(resnetFn(), testPred, Options{})
	if !p.Feasible() {
		t.Fatal("ResNet-50 at 200ms should have feasible configs")
	}
	for _, b := range p.order {
		for _, c := range p.cands[b] {
			if b == 1 {
				if c.TExec > 200*time.Millisecond {
					t.Errorf("b=1 candidate %v violates SLO", c)
				}
			} else if 2*c.TExec > 200*time.Millisecond {
				t.Errorf("b=%d candidate %v violates t_exec <= t_slo/2", b, c)
			}
			if c.Bounds.RLow > c.Bounds.RUp {
				t.Errorf("candidate %v has inverted bounds", c)
			}
		}
	}
	// Batch order must be descending (Algorithm 1 explores large first).
	bs := p.order
	for i := 1; i < len(bs); i++ {
		if bs[i] >= bs[i-1] {
			t.Fatalf("batch order not descending: %v", bs)
		}
	}
}

func TestBuildPlanTightSLO(t *testing.T) {
	// Bert-v1 within 50ms is impossible on CPU-only small configs; a plan
	// must still find GPU configs or be smaller than the full grid.
	fn := Function{Name: "bert", Model: model.MustGet("Bert-v1"), SLO: 150 * time.Millisecond}
	p := BuildPlan(fn, testPred, Options{})
	for _, b := range p.order {
		for _, c := range p.cands[b] {
			if c.Res.GPU == 0 && c.Res.CPU <= 2 {
				t.Errorf("implausible candidate for Bert at 150ms: %+v", c)
			}
		}
	}
}

func TestScheduleServesLoad(t *testing.T) {
	cl := cluster.Testbed()
	p := BuildPlan(resnetFn(), testPred, Options{})
	placed, residual := p.Schedule(500, cl)
	if residual != 0 {
		t.Fatalf("testbed should absorb 500 RPS of ResNet-50, residual %v", residual)
	}
	if len(placed) == 0 {
		t.Fatal("no instances placed")
	}
	var cap float64
	for _, d := range placed {
		cap += d.Bounds.RUp
	}
	if cap < 500 {
		t.Fatalf("placed capacity %v < 500", cap)
	}
	// All placements must be recorded in the cluster.
	if cl.TotalAllocated().IsZero() {
		t.Fatal("cluster shows no allocations")
	}
}

func TestSchedulePrefersLargeBatchUnderHighLoad(t *testing.T) {
	cl := cluster.Testbed()
	p := BuildPlan(resnetFn(), testPred, Options{})
	placed, _ := p.Schedule(2000, cl)
	if len(placed) == 0 {
		t.Fatal("nothing placed")
	}
	big := 0
	for _, d := range placed {
		if d.B >= 8 {
			big++
		}
	}
	if big == 0 {
		t.Errorf("high load should use large batches; got %+v", placed[0])
	}
}

func TestScheduleSmallLoadUsesSmallBatch(t *testing.T) {
	cl := cluster.Testbed()
	p := BuildPlan(resnetFn(), testPred, Options{})
	placed, residual := p.Schedule(3, cl)
	if residual != 0 || len(placed) == 0 {
		t.Fatalf("3 RPS should be served: placed=%d residual=%v", len(placed), residual)
	}
	for _, d := range placed {
		// 3 RPS cannot saturate batch sizes with r_low > 3.
		if d.B > 1 && d.Bounds.RLow > 3 {
			t.Errorf("unsaturatable batch chosen: %+v", d)
		}
	}
}

func TestScheduleExhaustsCluster(t *testing.T) {
	cl := cluster.New(cluster.Options{Servers: 1})
	p := BuildPlan(resnetFn(), testPred, Options{})
	placed, residual := p.Schedule(1e6, cl)
	if residual <= 0 {
		t.Fatal("one server cannot absorb 1M RPS")
	}
	if len(placed) == 0 {
		t.Fatal("expected at least one placement before exhaustion")
	}
	// Resource conservation: allocations must not exceed capacity.
	s := cl.Server(0)
	if !s.Free.NonNegative() {
		t.Fatalf("server over-allocated: %+v", s)
	}
}

func TestForceBatchOneAblation(t *testing.T) {
	cl := cluster.Testbed()
	p := BuildPlan(resnetFn(), testPred, Options{ForceBatchOne: true})
	placed, _ := p.Schedule(200, cl)
	for _, d := range placed {
		if d.B != 1 {
			t.Fatalf("BB ablation placed batch %d", d.B)
		}
	}
	// Under stress load (Figure 11's maximum-RPS test), the cluster-wide
	// capacity with batching must clearly exceed the batch-1 capacity.
	capOf := func(opts Options) float64 {
		cl := cluster.Testbed()
		p := BuildPlan(resnetFn(), testPred, opts)
		ds, _ := p.Schedule(1e6, cl)
		var cap float64
		for _, d := range ds {
			cap += d.Bounds.RUp
		}
		return cap
	}
	withBB := capOf(Options{})
	withoutBB := capOf(Options{ForceBatchOne: true})
	if withBB < withoutBB*1.2 {
		t.Errorf("batching should lift max throughput: with=%v without=%v", withBB, withoutBB)
	}
}

func TestDisableRSIncreasesFragmentation(t *testing.T) {
	// Figure 17b's setting: several functions packed under heavy load.
	fns := []Function{
		{Name: "resnet", Model: model.MustGet("ResNet-50"), SLO: 200 * time.Millisecond},
		{Name: "ssd", Model: model.MustGet("SSD"), SLO: 200 * time.Millisecond},
		{Name: "textcnn", Model: model.MustGet("TextCNN-69"), SLO: 50 * time.Millisecond},
		{Name: "mobilenet", Model: model.MustGet("MobileNet"), SLO: 100 * time.Millisecond},
	}
	var weightRS, weightNo float64
	pack := func(disableRS bool) (frag float64, capacity float64) {
		cl := cluster.Testbed()
		for _, fn := range fns {
			p := BuildPlan(fn, testPred, Options{DisableRS: disableRS})
			placed, _ := p.Schedule(2000, cl)
			for _, d := range placed {
				capacity += d.Bounds.RUp
			}
		}
		w := cl.TotalAllocated().Weighted()
		if disableRS {
			weightNo = w
		} else {
			weightRS = w
		}
		return cl.FragmentationRatio(), capacity
	}
	fragRS, capRS := pack(false)
	fragNo, capNo := pack(true)
	t.Logf("RS: frag=%.3f cap=%.0f; no-RS: frag=%.3f cap=%.0f", fragRS, capRS, fragNo, capNo)
	// Fragment-ratio superiority is a cluster-scale property (asserted by
	// the Figure 17b experiment in internal/bench); at unit level we
	// check that RS absorbs the demand without burning materially more
	// resources than the max-throughput ablation.
	if capRS < 4*2000 {
		t.Errorf("RS failed to cover demand: capacity %v", capRS)
	}
	if capNo < 4*2000 {
		t.Errorf("no-RS failed to cover demand: capacity %v", capNo)
	}
	_ = fragRS
	_ = fragNo
	if weightRS > weightNo*1.25 {
		t.Errorf("RS burned %.1f weighted resources vs %.1f without", weightRS, weightNo)
	}
}

func TestScheduleZeroLoad(t *testing.T) {
	cl := cluster.Testbed()
	p := BuildPlan(resnetFn(), testPred, Options{})
	placed, residual := p.Schedule(0, cl)
	if len(placed) != 0 || residual != 0 {
		t.Fatalf("zero load scheduled something: %v %v", placed, residual)
	}
}

func TestBuildPlanPanics(t *testing.T) {
	for _, fn := range []Function{
		{Name: "nil-model", Model: nil, SLO: time.Second},
		{Name: "no-slo", Model: model.MustGet("MNIST"), SLO: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", fn.Name)
				}
			}()
			BuildPlan(fn, testPred, Options{})
		}()
	}
}

func TestPredictorCache(t *testing.T) {
	calls := 0
	counting := predictorFunc(func(m *model.Model, b int, res perf.Resources) time.Duration {
		calls++
		return time.Duration(b) * time.Millisecond
	})
	pc := NewPredictorCache(counting)
	m := model.MustGet("MNIST")
	for i := 0; i < 5; i++ {
		pc.Predict(m, 4, perf.Resources{CPU: 2})
	}
	if calls != 1 {
		t.Fatalf("cache missed: %d calls", calls)
	}
	pc.Predict(m, 8, perf.Resources{CPU: 2})
	if calls != 2 {
		t.Fatalf("distinct key should miss: %d calls", calls)
	}
}

type predictorFunc func(*model.Model, int, perf.Resources) time.Duration

func (f predictorFunc) Predict(m *model.Model, b int, res perf.Resources) time.Duration {
	return f(m, b, res)
}

// Property-style: scheduling random loads never over-allocates and the
// served capacity always covers rps - residual.
func TestPropertyScheduleSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	models := []string{"ResNet-50", "MobileNet", "TextCNN-69", "MNIST", "SSD"}
	for iter := 0; iter < 25; iter++ {
		cl := cluster.New(cluster.Options{Servers: 1 + rng.Intn(4)})
		name := models[rng.Intn(len(models))]
		slo := time.Duration(100+rng.Intn(400)) * time.Millisecond
		fn := Function{Name: name, Model: model.MustGet(name), SLO: slo}
		p := BuildPlan(fn, testPred, Options{})
		if !p.Feasible() {
			continue
		}
		rps := rng.Float64() * 3000
		placed, residual := p.Schedule(rps, cl)
		var cap float64
		for _, d := range placed {
			cap += d.Bounds.RUp
		}
		if cap+residual < rps-1e-6 {
			t.Fatalf("iter %d: capacity %v + residual %v < rps %v", iter, cap, residual, rps)
		}
		cl.EachServer(func(s *cluster.Server) bool {
			if !s.Free.NonNegative() {
				t.Fatalf("iter %d: over-allocation on server %d", iter, s.ID)
			}
			return true
		})
	}
}

// TestSingleInstanceScheduleAllocatesOnlyItsResult pins the cost model of
// the scale-out critical path (Figure 17a): with serial fit queries a
// one-instance Schedule allocates its result slice and nothing else — no
// pool, no sort closure, no per-query visitor.
func TestSingleInstanceScheduleAllocatesOnlyItsResult(t *testing.T) {
	p := BuildPlan(resnetFn(), testPred, Options{MaxInstancesPerCall: 1})
	cl := cluster.New(cluster.Options{Servers: 64, Shards: 4})
	mem := p.Fn.Model.MemoryMB
	if warm, _ := p.Schedule(1e6, cl); len(warm) != 1 { // leave one instance: later placements pack onto its server
		t.Fatal("nothing placed on an empty cluster")
	}
	allocs := testing.AllocsPerRun(200, func() {
		placed, _ := p.Schedule(300, cl)
		if len(placed) != 1 {
			t.Fatal("nothing placed")
		}
		cl.Release(placed[0].Server, placed[0].Res, mem)
	})
	if allocs > 1 {
		t.Fatalf("one-instance Schedule = %v allocs, want <= 1", allocs)
	}
}

func TestScheduleSkipsDownServers(t *testing.T) {
	cl := cluster.New(cluster.Options{Servers: 3})
	cl.SetDown(0, true)
	cl.SetDown(1, true)
	p := BuildPlan(resnetFn(), testPred, Options{})
	placed, _ := p.Schedule(100, cl)
	if len(placed) == 0 {
		t.Fatal("nothing placed with one healthy server")
	}
	for _, d := range placed {
		if d.Server != 2 {
			t.Fatalf("placed on down server %d", d.Server)
		}
	}
	// With every server down, nothing can be placed.
	cl.SetDown(2, true)
	more, residual := p.Schedule(100, cl)
	if len(more) != 0 || residual != 100 {
		t.Fatalf("placement on all-down cluster: %v residual=%v", more, residual)
	}
}
