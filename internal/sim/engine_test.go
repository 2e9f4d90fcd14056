package sim

import (
	"math/rand"
	"reflect"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

// manualController is a minimal controller for white-box engine tests: it
// launches one fixed instance per function at init and routes everything
// to the function's first live instance. It sets no cold-start policy,
// so the engine's default applies.
type manualController struct {
	cand  scheduler.Candidate
	admit bool
}

func (m *manualController) Name() string { return "manual" }

func (m *manualController) Init(e *Engine) {
	for _, f := range e.Functions() {
		e.Launch(f, m.cand, 0)
	}
}

func (m *manualController) Route(e *Engine, f *FunctionState, r *Request) *Instance {
	for _, inst := range f.Instances() {
		if !inst.Draining && inst.CanAccept() {
			return inst
		}
	}
	return nil
}

func (m *manualController) Tick(e *Engine, f *FunctionState) { e.FlushPending(f) }

func (m *manualController) SLOAwareAdmission() bool { return m.admit }

func testCand(b int, res perf.Resources, texec time.Duration, slo time.Duration) scheduler.Candidate {
	bounds, err := batching.RateBounds(texec, slo, b)
	if err != nil {
		panic(err)
	}
	return scheduler.Candidate{B: b, Res: res, TExec: texec, Bounds: bounds}
}

func TestEngineBatchesToConfiguredSize(t *testing.T) {
	ctrl := &manualController{cand: testCand(4, perf.Resources{CPU: 2}, 20*time.Millisecond, 200*time.Millisecond)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 30 * time.Second, Seed: 1})
	e.AddFunction(FunctionSpec{
		Name:  "f",
		Model: model.MustGet("MNIST"),
		SLO:   200 * time.Millisecond,
		Trace: workload.Constant(400, 30*time.Second, time.Second),
	})
	f := e.Run().Telemetry.Function("f")
	if f.Served == 0 {
		t.Fatal("nothing served")
	}
	// At 400 RPS a batch of 4 fills in 10ms << timeout, so almost all
	// batches should drain full.
	full := f.BatchServed[4]
	var total uint64
	for _, n := range f.BatchServed {
		total += n
	}
	if float64(full) < 0.9*float64(total) {
		t.Errorf("full batches = %d of %d", full, total)
	}
}

func TestEnginePartialBatchOnTimeout(t *testing.T) {
	// 2 RPS cannot fill a batch of 8 within the timeout: the engine must
	// flush partial batches rather than stall.
	ctrl := &manualController{cand: testCand(8, perf.Resources{CPU: 2}, 20*time.Millisecond, 400*time.Millisecond)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 30 * time.Second, Seed: 1})
	e.AddFunction(FunctionSpec{
		Name:  "f",
		Model: model.MustGet("MNIST"),
		SLO:   400 * time.Millisecond,
		Trace: workload.Constant(2, 30*time.Second, time.Second),
	})
	f := e.Run().Telemetry.Function("f")
	if f.Served < 40 {
		t.Fatalf("served %d of ~60", f.Served)
	}
	if f.SLOViolationRate > 0.05 {
		t.Errorf("timeout flushing should keep requests within SLO: viol=%.3f", f.SLOViolationRate)
	}
	if f.BatchServed[8] > 0 && f.BatchServed[8] == f.Served {
		t.Error("all batches full at 2 RPS is implausible")
	}
}

func TestEngineColdStartAccounting(t *testing.T) {
	ctrl := &manualController{cand: testCand(1, perf.Resources{CPU: 4}, 5*time.Millisecond, 10*time.Second)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 10 * time.Second, Seed: 1})
	e.AddFunction(FunctionSpec{
		Name:  "f",
		Model: model.MustGet("MNIST"),
		SLO:   10 * time.Second,
		Trace: workload.Constant(20, 10*time.Second, time.Second),
	})
	e.Run()
	// Requests arriving during the instance's cold start must carry a
	// cold component.
	rec := e.Telemetry().Recorder("f")
	if rec.ColdRate() == 0 {
		t.Error("no cold-start latency recorded for scale-from-zero")
	}
	cold, _, _ := rec.Breakdown()
	if cold == 0 {
		t.Error("mean cold component is zero")
	}
}

// The warm-up cut-off is the engine's, whoever built the collector: a
// supplied one excludes exactly what the engine's own does.
func TestEngineWarmupExcludesEarlySamples(t *testing.T) {
	run := func(warmup time.Duration, col *telemetry.Collector) uint64 {
		ctrl := &manualController{cand: testCand(1, perf.Resources{CPU: 4}, 5*time.Millisecond, time.Second)}
		e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 10 * time.Second, Seed: 1, Warmup: warmup, Collector: col})
		e.AddFunction(FunctionSpec{
			Name:  "f",
			Model: model.MustGet("MNIST"),
			SLO:   time.Second,
			Trace: workload.Constant(50, 10*time.Second, time.Second),
		})
		return e.Run().Served()
	}
	all := run(0, nil)
	half := run(5*time.Second, nil)
	if half >= all {
		t.Fatalf("warmup did not exclude samples: %d vs %d", half, all)
	}
	if float64(half) < 0.3*float64(all) {
		t.Fatalf("warmup excluded too much: %d vs %d", half, all)
	}
	col := telemetry.New(telemetry.Options{})
	run(5*time.Second, col)
	if supplied := col.Snapshot().Function("f").Served; supplied != half {
		t.Fatalf("supplied collector holds %d served after the warm-up, the engine's own %d (all: %d)", supplied, half, all)
	}
}

func TestEngineChainForwarding(t *testing.T) {
	ctrl := &manualController{cand: testCand(2, perf.Resources{CPU: 4}, 5*time.Millisecond, 300*time.Millisecond)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 20 * time.Second, Seed: 2})
	e.AddFunction(FunctionSpec{
		Name:      "head",
		Model:     model.MustGet("MNIST"),
		SLO:       300 * time.Millisecond,
		Trace:     workload.Constant(40, 20*time.Second, time.Second),
		ForwardTo: "tail",
	})
	tail := e.AddFunction(FunctionSpec{
		Name:     "tail",
		Model:    model.MustGet("MNIST"),
		SLO:      300 * time.Millisecond,
		ChainSLO: time.Second,
	})
	e.Run()
	if e.Telemetry().Recorder("head").Served() == 0 {
		t.Fatal("head served nothing")
	}
	stage := e.Telemetry().Recorder("tail")
	if stage.Served() == 0 {
		t.Fatal("tail never received forwarded requests")
	}
	if tail.ChainRecorder == nil {
		t.Fatal("tail did not get a chain recorder")
	}
	if tail.ChainRecorder.SLO() != time.Second {
		t.Fatalf("chain SLO = %v, want explicit 1s", tail.ChainRecorder.SLO())
	}
	if tail.ChainRecorder.Served() == 0 {
		t.Fatal("chain recorder empty")
	}
	// Chain latency must exceed either stage's own mean.
	if tail.ChainRecorder.Mean() <= stage.Mean() {
		t.Errorf("chain mean %v <= stage mean %v", tail.ChainRecorder.Mean(), stage.Mean())
	}
}

func TestEngineChainDefaultsSLOToStageSum(t *testing.T) {
	ctrl := &manualController{cand: testCand(1, perf.Resources{CPU: 4}, 5*time.Millisecond, 300*time.Millisecond)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: time.Second, Seed: 2})
	e.AddFunction(FunctionSpec{
		Name: "a", Model: model.MustGet("MNIST"), SLO: 100 * time.Millisecond,
		Trace: workload.Constant(5, time.Second, time.Second), ForwardTo: "b",
	})
	b := e.AddFunction(FunctionSpec{
		Name: "b", Model: model.MustGet("MNIST"), SLO: 150 * time.Millisecond,
	})
	e.Run()
	if b.ChainRecorder.SLO() != 250*time.Millisecond {
		t.Fatalf("default chain SLO = %v, want 250ms", b.ChainRecorder.SLO())
	}
}

func TestEngineChainValidation(t *testing.T) {
	mk := func(forward string) *Engine {
		ctrl := &manualController{cand: testCand(1, perf.Resources{CPU: 4}, 5*time.Millisecond, time.Second)}
		e := New(ctrl, Config{Duration: time.Second})
		e.AddFunction(FunctionSpec{
			Name: "a", Model: model.MustGet("MNIST"), SLO: time.Second,
			Trace: workload.Constant(1, time.Second, time.Second), ForwardTo: forward,
		})
		return e
	}
	for _, forward := range []string{"missing", "a"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("forward to %q should panic", forward)
				}
			}()
			mk(forward).Run()
		}()
	}
}

func TestEngineAdmissionRejectsDoomed(t *testing.T) {
	// One slow batch-1 instance and admission enabled: requests whose
	// projected wait exceeds the SLO must be dropped, keeping served
	// latency within bounds.
	ctrl := &manualController{
		cand:  testCand(1, perf.Resources{CPU: 1}, 90*time.Millisecond, 200*time.Millisecond),
		admit: true,
	}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 20 * time.Second, Seed: 3})
	e.AddFunction(FunctionSpec{
		Name:  "f",
		Model: model.MustGet("ResNet-50"),
		SLO:   200 * time.Millisecond,
		Trace: workload.Constant(100, 20*time.Second, time.Second), // 10x overload
	})
	e.Run()
	rec := e.Telemetry().Recorder("f")
	if rec.Dropped() == 0 {
		t.Fatal("admission control never dropped")
	}
	// The requests that were served must be (mostly) in time.
	if v := rec.ViolationRate(); v < 0.5 {
		// Most offered load must count as violations (they were dropped)...
		t.Errorf("violation rate %v too low for 10x overload", v)
	}
	if p99 := rec.Percentile(0.99); p99 > 400*time.Millisecond {
		t.Errorf("served p99 = %v; admission should keep served requests fresh", p99)
	}
}

func TestEnginePrewarmSkipsColdStart(t *testing.T) {
	// An LSTH-style policy with tiny prewarm and long keepalive: after
	// the function goes idle and is pre-warmed, a later launch is warm.
	ctrl := &manualController{cand: testCand(1, perf.Resources{CPU: 4}, 5*time.Millisecond, time.Second)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: time.Minute, Seed: 4})
	e.AddFunction(FunctionSpec{
		Name:   "f",
		Model:  model.MustGet("MNIST"),
		SLO:    time.Second,
		Trace:  workload.Constant(1, time.Minute, time.Minute),
		Policy: coldstart.NewLSTH(coldstart.LSTHOptions{}),
	})
	// Manually exercise prewarm wiring: reclaim the initial instance and
	// relaunch within the prewarm window.
	res := e.Run()
	// This test mainly asserts no panics in the prewarm path; detailed
	// cold-vs-warm behavior is covered by coldstart package tests and
	// ColdLaunches accounting below.
	if res.Telemetry.Function("f").Launches == 0 {
		t.Fatal("no launches")
	}
}

func TestResultAggregates(t *testing.T) {
	ctrl := &manualController{cand: testCand(1, perf.Resources{CPU: 4}, 5*time.Millisecond, time.Second)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 10 * time.Second, Seed: 5})
	e.AddFunction(FunctionSpec{
		Name:  "f",
		Model: model.MustGet("MNIST"),
		SLO:   time.Second,
		Trace: workload.Constant(30, 10*time.Second, time.Second),
	})
	res := e.Run()
	if res.Served() == 0 {
		t.Fatal("result aggregates empty")
	}
	if res.Telemetry.Resources.WeightedSeconds <= 0 || res.ThroughputPerResource() <= 0 {
		t.Fatal("resource accounting empty")
	}
	if res.System != "manual" {
		t.Fatalf("system name = %s", res.System)
	}
}

// flushProbe is a manualController that places at most room more
// requests and that, like pendingWatch, calls check from inside a flush.
type flushProbe struct {
	manualController
	room  int
	check func()
}

func (p *flushProbe) Route(e *Engine, f *FunctionState, r *Request) *Instance {
	if p.check != nil {
		p.check()
	}
	if p.room == 0 {
		return nil
	}
	inst := p.manualController.Route(e, f, r)
	if inst != nil {
		p.room--
	}
	return inst
}

// pendingWatch calls check from every observer event Enqueue publishes.
type pendingWatch struct {
	runtime.NopObserver
	check func()
}

func (w *pendingWatch) RequestEnqueued(string, int, time.Duration)     { w.check() }
func (w *pendingWatch) BatchSubmitted(string, int, int, time.Duration) { w.check() }
func (w *pendingWatch) RequestDropped(string, time.Duration)           { w.check() }

// A partial flush leaves the unrouted remainder, in order, at the front
// of the backlog's own array. That is sound only while nothing the loop
// calls appends to the backlog before it returns, so the backlog's
// length is checked from every call the loop makes out of the engine:
// Route, the observers (an enqueue, a full batch's submission, an
// admission drop) and the completion hook.
func TestFlushPendingCompactsInPlace(t *testing.T) {
	ctrl := &flushProbe{manualController: manualController{
		cand:  testCand(2, perf.Resources{CPU: 2}, 90*time.Millisecond, 200*time.Millisecond),
		admit: true,
	}}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Seed: 1})
	f := e.AddFunction(FunctionSpec{Name: "f", Model: model.MustGet("MNIST"), SLO: 200 * time.Millisecond})
	watch := &pendingWatch{check: func() {}}
	e.Observe(watch)
	dropped := 0
	e.OnDone(func(_ *Request, o Outcome) {
		watch.check()
		if !o.Served {
			dropped++
		}
	})
	e.Start()
	e.Clock().RunUntil(time.Minute) // the instance is warm and idle

	for i := 0; i < 12; i++ {
		e.Inject(f, e.NewRequest())
	}
	before := slices.Clone(f.Pending)
	if len(before) != 12 {
		t.Fatalf("backlog = %d requests, want 12", len(before))
	}
	const routed = 9
	ctrl.room = routed
	checks := 0
	watch.check = func() {
		checks++
		if !slices.Equal(f.Pending, before) {
			t.Errorf("backlog changed under FlushPending: %d requests, want %d", len(f.Pending), len(before))
		}
	}
	ctrl.check = watch.check
	e.FlushPending(f)
	ctrl.check, watch.check = nil, func() {}

	if inst := f.Instances()[0]; !inst.Busy || dropped == 0 || dropped >= routed {
		t.Fatalf("flush submitted=%v dropped=%d of %d routed: want a submission, an admission drop and an enqueue",
			inst.Busy, dropped, routed)
	}
	if checks <= 2*routed {
		t.Errorf("backlog checked %d times for %d routed requests", checks, routed)
	}
	if !slices.Equal(f.Pending, before[routed:]) {
		t.Errorf("remainder is not the unrouted suffix, in order")
	}
	if cap(f.Pending) < len(before) {
		t.Errorf("remainder has capacity %d: the backlog's array (%d) was not kept", cap(f.Pending), len(before))
	}
}

// A simulated arrival under a fixed keep-alive allocates nothing of its
// own: no closure per arrival (the chain re-arms one bound callback),
// nothing in Stream.Next once its buffer holds the largest step, no
// request or clock event past the free lists' fill (the requests that
// back up behind the one cold start are most of what is left). It is the
// guard of Run's arrival chain and of onBatchComplete; the admit case
// adds SLO-aware admission (ProjectedViolation on every enqueue).
// The bound sits under the ≈ 0.05 that one allocation per completed batch
// reads here (a fmt.Sprint in onBatchComplete), against ≈ 0.019 without.
func TestRunMallocsPerArrival(t *testing.T) {
	for _, admit := range []bool{false, true} {
		ctrl := &manualController{cand: testCand(32, perf.Resources{CPU: 2}, 8*time.Millisecond, 200*time.Millisecond), admit: admit}
		e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: time.Minute, Seed: 1})
		e.AddFunction(FunctionSpec{
			Name:  "f",
			Model: model.MustGet("MNIST"),
			SLO:   200 * time.Millisecond,
			Trace: workload.Constant(1000, time.Minute, time.Second),
		})
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		res := e.Run()
		goruntime.ReadMemStats(&after)
		arrived := res.Telemetry.Function("f").Arrived
		if arrived < 50000 {
			t.Fatalf("admit %v: only %d arrivals", admit, arrived)
		}
		if per := float64(after.Mallocs-before.Mallocs) / float64(arrived); per >= 0.03 {
			t.Errorf("admit %v: %.4f mallocs per arrival over %d arrivals, want < 0.03", admit, per, arrived)
		}
	}
}

// TestExecMemoMatchesExecTime pins the instance's base-time memo to the
// direct computation: for every model, batch size and a spread of
// allocations, the engine's draw equals Model.ExecTime on an identically
// seeded generator, on the call that fills the memo and on the one that
// reads it — same value, same number of draws.
func TestExecMemoMatchesExecTime(t *testing.T) {
	allocs := []perf.Resources{
		{CPU: 1}, {CPU: 2}, {CPU: 16}, {GPU: 1}, {CPU: 1, GPU: 2}, {CPU: 4, GPU: 3}, {CPU: 2, GPU: 10},
	}
	const seed = 11
	for _, m := range model.All() {
		e := New(&manualController{}, Config{Cluster: cluster.Testbed(), Duration: time.Minute, Seed: seed})
		f := e.AddFunction(FunctionSpec{Name: m.Name, Model: m, SLO: time.Second,
			Policy: coldstart.Fixed{KeepAlive: coldstart.DefaultFixedKeepAlive}}) // the engine has not started
		ref := model.DefaultExecOptions(rand.New(rand.NewSource(seed)))
		for _, res := range allocs {
			inst := e.Launch(f, testCand(m.MaxBatch, res, 10*time.Millisecond, time.Second), 0)
			if inst == nil {
				t.Fatalf("%s: testbed server cannot host %+v", m.Name, res)
			}
			for _, b := range profiler.DefaultBatches {
				if b > inst.Cand.B {
					break
				}
				for _, call := range []string{"miss", "hit"} {
					if got, want := e.execTime(inst, b), m.ExecTime(b, res, ref); got != want {
						t.Fatalf("%s b=%d %+v (%s): engine draws %v, ExecTime %v", m.Name, b, res, call, got, want)
					}
				}
				if inst.baseExec[b] != m.ExecTime(b, res, model.DefaultExecOptions(nil)) {
					t.Fatalf("%s b=%d %+v: memo holds %v", m.Name, b, res, inst.baseExec[b])
				}
			}
			e.Reclaim(inst)
		}
	}
}

// Instance IDs run 1, 2, 3 per function; removing an instance keeps the
// others in launch order, and removing it again is a no-op.
func TestInstanceIDsAndRemoval(t *testing.T) {
	e := New(&manualController{}, Config{Cluster: cluster.Testbed(), Duration: time.Minute, Seed: 1})
	cand := testCand(4, perf.Resources{CPU: 2}, 20*time.Millisecond, 200*time.Millisecond)
	for _, name := range []string{"f", "g"} {
		f := e.AddFunction(FunctionSpec{Name: name, Model: model.MustGet("MNIST"), SLO: 200 * time.Millisecond})
		var insts []*Instance
		for i := 1; i <= 3; i++ {
			inst := e.Launch(f, cand, 0)
			if inst.ID != i {
				t.Fatalf("%s: launch %d got ID %d", name, i, inst.ID)
			}
			insts = append(insts, inst)
		}
		f.removeInstance(insts[1])
		f.removeInstance(insts[1])
		if got, want := f.Instances(), []*Instance{insts[0], insts[2]}; !slices.Equal(got, want) {
			t.Fatalf("%s: instances after removing #2 twice = %v, want #1, #3", name, got)
		}
	}
}

// AddCredit clamps the balance from above by its cap.
func TestInstanceCreditClamp(t *testing.T) {
	var inst Instance
	inst.AddCredit(5, 3)
	if inst.Credit() != 3 {
		t.Fatalf("credit = %v, want the clamp at 3", inst.Credit())
	}
	inst.AddCredit(-1, 3)
	if inst.Credit() != 2 {
		t.Fatalf("credit = %v, want 2", inst.Credit())
	}
}

// A function its controller leaves without a cold-start policy runs
// exactly as one given the fixed 300 s keep-alive: under Run, and when
// added to a started engine. The arrivals' idle gaps straddle 300 s, so
// the keep-alive decides which of them find a warm instance.
func TestNilPolicyRunsAsFixedDefault(t *testing.T) {
	fixed := coldstart.Fixed{KeepAlive: coldstart.DefaultFixedKeepAlive}
	const dur = 16 * time.Minute
	cand := testCand(4, perf.Resources{CPU: 2}, 20*time.Millisecond, 200*time.Millisecond)
	spec := func(p coldstart.Policy) FunctionSpec {
		return FunctionSpec{Name: "f", Model: model.MustGet("MNIST"), SLO: 200 * time.Millisecond, Policy: p,
			Trace: &workload.Trace{Step: time.Minute, RPS: []float64{2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0}}}
	}
	run := func(p coldstart.Policy) (telemetry.Snapshot, coldstart.Policy) {
		e := New(&manualController{cand: cand}, Config{Cluster: cluster.Testbed(), Duration: dur, Seed: 1})
		f := e.AddFunction(spec(p))
		return e.Run().Telemetry, f.Policy
	}
	live := func(p coldstart.Policy) (telemetry.Snapshot, coldstart.Policy) {
		e := New(&manualController{cand: cand}, Config{Cluster: cluster.Testbed(), Duration: dur, Seed: 1})
		e.Start()
		s := spec(p)
		s.Trace = nil
		f := e.AddFunction(s)
		e.Launch(f, cand, 0)
		for _, at := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Minute, 10 * time.Minute, 10*time.Minute + time.Second} {
			e.Clock().RunUntil(at)
			e.Inject(f, e.NewRequest())
		}
		e.Clock().RunUntil(dur)
		return e.Telemetry().SnapshotAt(dur), f.Policy
	}
	for _, c := range []struct {
		name  string
		drive func(coldstart.Policy) (telemetry.Snapshot, coldstart.Policy)
	}{{"Run", run}, {"AddFunction on a started engine", live}} {
		got, policy := c.drive(nil)
		want, _ := c.drive(fixed)
		if policy != coldstart.Policy(fixed) {
			t.Fatalf("%s: nil policy became %#v, want %#v", c.name, policy, fixed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshot with a nil policy differs from the fixed 300 s run:\n%+v\n%+v", c.name, got, want)
		}
		if got.Functions[0].Served == 0 {
			t.Fatalf("%s: nothing served; the comparison is vacuous", c.name)
		}
	}
}

// The keep-alive deadline of a live engine's instance: a later idle
// spell moves it without touching the armed timer, which re-arms at the
// new deadline when it fires; a keep-alive the policy shortens re-arms
// it earlier and leaves nothing of the old one on the clock; and a timer
// that fires while the instance is busy reclaims nothing, the next idle
// spell arming as usual.
func TestKeepAliveDeadline(t *testing.T) {
	const keep = 10 * time.Minute
	// live returns a started engine whose one instance of f is warm and
	// idle at one minute, and serve, which runs one request through it
	// from now and returns when it is answered.
	live := func(t *testing.T) (e *Engine, f *FunctionState, inst *Instance, serve func() time.Duration) {
		ctrl := &manualController{cand: testCand(1, perf.Resources{CPU: 2}, 100*time.Millisecond, time.Second)}
		e = New(ctrl, Config{Cluster: cluster.Testbed(), Seed: 1})
		f = e.AddFunction(FunctionSpec{Name: "f", Model: model.MustGet("ResNet-50"), SLO: time.Second,
			Policy: coldstart.Fixed{KeepAlive: keep}})
		var answered time.Duration
		e.OnDone(func(_ *Request, o Outcome) {
			if !o.Served {
				t.Fatalf("request dropped at %v", e.Clock().Now())
			}
			answered = e.Clock().Now()
		})
		e.Start()
		e.Clock().RunUntil(time.Minute)
		inst = f.Instances()[0]
		if !inst.Ready || inst.Busy || inst.reclaim.At() != inst.ReadyAt+keep {
			t.Fatalf("instance ready %v, busy %v, reclaim at %v: want idle since %v", inst.Ready, inst.Busy, inst.reclaim.At(), inst.ReadyAt)
		}
		serve = func() time.Duration {
			answered = 0
			e.Inject(f, e.NewRequest())
			for answered == 0 && e.Clock().Step() {
			}
			return answered
		}
		return e, f, inst, serve
	}
	alive := func(t *testing.T, e *Engine, f *FunctionState, at time.Duration, want bool) {
		t.Helper()
		e.Clock().RunUntil(at)
		if got := len(f.Instances()) == 1; got != want {
			t.Fatalf("at %v: instance alive = %v, want %v", at, got, want)
		}
	}

	t.Run("moves later", func(t *testing.T) {
		e, f, inst, serve := live(t)
		first := inst.reclaim.At()
		e.Clock().RunUntil(5 * time.Minute)
		done := serve()
		if inst.reclaim.At() != first {
			t.Fatalf("idle spell from %v re-armed the timer to %v; it should stay at %v", done, inst.reclaim.At(), first)
		}
		alive(t, e, f, first, true)
		if inst.reclaim.At() != done+keep {
			t.Fatalf("after the first deadline passed the timer is at %v, want %v", inst.reclaim.At(), done+keep)
		}
		alive(t, e, f, done+keep-1, true)
		alive(t, e, f, done+keep, false)
	})

	t.Run("shrinks", func(t *testing.T) {
		e, f, inst, serve := live(t)
		e.Clock().RunUntil(5 * time.Minute)
		f.Policy = coldstart.Fixed{KeepAlive: time.Minute}
		done := serve()
		if inst.reclaim.At() != done+time.Minute {
			t.Fatalf("timer at %v after the keep-alive shrank, want %v", inst.reclaim.At(), done+time.Minute)
		}
		alive(t, e, f, done+time.Minute-1, true)
		alive(t, e, f, done+time.Minute, false)
		if next, ok := e.Clock().Next(); ok {
			t.Fatalf("an event is left at %v after the reclaim: the old timer was not cancelled", next)
		}
	})

	t.Run("fires while busy", func(t *testing.T) {
		e, f, inst, serve := live(t)
		first := inst.reclaim.At()
		e.Clock().RunUntil(first - 1)
		done := serve() // executing across first
		if done <= first {
			t.Fatalf("request answered at %v, not across the timer at %v", done, first)
		}
		if len(f.Instances()) != 1 {
			t.Fatalf("instance reclaimed at %v while busy", first)
		}
		if inst.reclaim.At() != done+keep {
			t.Fatalf("next idle spell armed the timer at %v, want %v", inst.reclaim.At(), done+keep)
		}
		alive(t, e, f, done+keep-1, true)
		alive(t, e, f, done+keep, false)
	})
}
