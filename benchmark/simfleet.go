package main

// simfleet.go is the deterministic-plane workload: sim.Engine under the
// INFless controller (core.New) serving a fleet of simCells cells, each a
// 32-server cluster with twelve functions whose open-loop arrivals
// follow the paper's trace families. Arrivals are due in virtual time,
// so the generator is never late, and every policy outcome — latency,
// SLO attainment, goodput per resource — repeats bit for bit for one
// seed. One segment is one whole engine run over one cell; its wall time
// is the simulator's own speed.
//
// Why cells: autoscaling is a chain of threshold decisions, so the
// outcome of one cell moves by several per cent when its input changes
// at all (README.md has the numbers). The fleet's outcome, summed over
// the cells, is what repeats across seeds.

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

const (
	simCells    = 16
	simDuration = 4 * time.Minute  // virtual
	simWarmup   = 30 * time.Second // excluded from latency and attainment
	// simQuietTail ends every trace early so that all queues drain before
	// the run stops and conservation (arrived = served + dropped) is exact.
	simQuietTail   = 3 * time.Second
	simServers     = 32
	simShards      = 4
	simFailServer  = 5
	simFailFor     = 20 * time.Second
	simDaySteps    = 24 * 60 // a trace day at one-minute resolution
	simStepVirtual = simDuration / simDaySteps
)

// simFunction is one row of the fleet: which model, which SLO, which
// trace family and at what base rate. The rates and the trace seeds are
// drawn from --seed; the table itself is the workload's definition.
type simFunction struct {
	name, model, family string
	slo                 time.Duration
	rpsLo, rpsHi        float64
}

var simFleet = []simFunction{
	{"resnet-c", "ResNet-50", "constant", 200 * time.Millisecond, 800, 1200},
	{"mobilenet-c", "MobileNet", "constant", 100 * time.Millisecond, 1400, 2000},
	{"ssd-c", "SSD", "constant", 250 * time.Millisecond, 800, 1100},
	{"textcnn-c", "TextCNN-69", "constant", 100 * time.Millisecond, 1400, 2000},
	{"facenet-b", "FaceNet", "bursty", 300 * time.Millisecond, 150, 250},
	{"deepspeech-b", "DeepSpeech", "bursty", 300 * time.Millisecond, 150, 250},
	{"lstm-b", "LSTM-2365", "bursty", 200 * time.Millisecond, 200, 300},
	{"mnist-b", "MNIST", "bursty", 50 * time.Millisecond, 400, 600},
	{"vgg-p", "VGGNet-19", "periodic", 400 * time.Millisecond, 100, 160},
	{"bert-p", "Bert-v1", "periodic", 500 * time.Millisecond, 60, 100},
	{"mobilenet-s", "MobileNet", "sporadic", 100 * time.Millisecond, 300, 500},
	{"resnet-s", "ResNet-50", "sporadic", 200 * time.Millisecond, 300, 500},
}

type simFleetWorkload struct {
	cells [simCells][]sim.FunctionSpec // generated inputs
	pred  scheduler.Predictor

	next  int               // the cell the next segment simulates
	first [simCells]*simRun // each cell's first repetition: every later one must equal it

	// Traced pass: one observer over all traced repetitions.
	obs        *simObserver
	tracedWall time.Duration
}

// simRun is what one repetition produced, reduced to what is compared
// and reported.
type simRun struct {
	digest     uint64
	arrived    uint64
	served     uint64 // after warm-up
	dropped    uint64 // after warm-up
	violations uint64
	latency    []bucket // merged over functions, ms
	resSeconds float64  // beta-weighted, after warm-up
	resTotal   float64  // whole run
}

// newSimFleet generates the traces from the seed.
func newSimFleet(seed int64) *simFleetWorkload {
	rng := rand.New(rand.NewSource(seed))
	s := &simFleetWorkload{}
	for c := range s.cells {
		s.cells[c] = generateCell(rng)
	}
	return s
}

func generateCell(rng *rand.Rand) []sim.FunctionSpec {
	var specs []sim.FunctionSpec
	for _, f := range simFleet {
		rate := f.rpsLo + rng.Float64()*(f.rpsHi-f.rpsLo)
		opts := workload.Options{Days: 1, Step: time.Minute, Seed: rng.Int63(), BaseRPS: rate}
		var tr *workload.Trace
		switch f.family {
		case "constant":
			tr = workload.Constant(rate, 24*time.Hour, time.Minute)
		case "bursty":
			tr = workload.Bursty(opts)
		case "periodic":
			tr = workload.Periodic(opts)
		case "sporadic":
			tr = workload.Sporadic(opts)
		}
		// Compress the day into the run: the same rate series, shorter
		// steps. Then silence the tail.
		tr.Step = simStepVirtual
		for i := range tr.RPS {
			if time.Duration(i+1)*tr.Step > simDuration-simQuietTail {
				tr.RPS[i] = 0
			}
		}
		specs = append(specs, sim.FunctionSpec{
			Name: f.name, Model: model.MustGet(f.model), SLO: f.slo, Trace: tr,
		})
	}
	return specs
}

// setup profiles the operator database, builds the predictor, and runs
// one whole repetition untimed with the conservation observer attached.
func (s *simFleetWorkload) setup(tr *tracer) error {
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)
	id := tr.begin("profiler.NewDB", root, 0)
	db := profiler.NewDB(profiler.DefaultDBOptions())
	tr.end(id)
	s.pred = scheduler.NewPredictorCache(profiler.NewPredictor(db))
	for _, spec := range s.cells[0] {
		id := tr.begin("scheduler.BuildPlan", root, 0)
		plan := scheduler.BuildPlan(scheduler.Function{Name: spec.Name, Model: spec.Model, SLO: spec.SLO},
			s.pred, scheduler.Options{})
		tr.end(id)
		if !plan.Feasible() {
			return fmt.Errorf("no configuration of %s meets %v", spec.Model.Name, spec.SLO)
		}
	}
	obs := newSimObserver()
	run, err := s.repetition(tr, root, 0, obs)
	if err != nil {
		return err
	}
	if err := obs.conserved(); err != nil {
		return err
	}
	s.first[0] = run
	return nil
}

// repetition builds a fresh cluster, controller and engine over the
// shared predictor and the generated traces, and runs it. The seed of
// sim.Config is a constant: --seed reaches only the traces.
func (s *simFleetWorkload) repetition(tr *tracer, parent int32, cell int, obs *simObserver) (*simRun, error) {
	storage, err := artifact.Profile("tiered")
	if err != nil {
		return nil, fmt.Errorf("storage profile: %w", err)
	}
	id := tr.begin("sim.New", parent, 0)
	e := sim.New(core.New(core.Options{Predictor: s.pred}), sim.Config{
		Cluster:  cluster.New(cluster.Options{Servers: simServers, Shards: simShards}),
		Seed:     1,
		Duration: simDuration,
		Warmup:   simWarmup,
		Storage:  &storage,
		Failures: []sim.ServerFailure{{Server: simFailServer, At: simDuration / 2, Duration: simFailFor}},
	})
	for _, spec := range s.cells[cell] {
		e.AddFunction(spec)
	}
	if obs != nil {
		e.Observe(obs)
	}
	tr.end(id)
	id = tr.begin("sim.Engine.Run", parent, 0)
	res := e.Run()
	tr.end(id)
	return reduceSim(res.Telemetry), nil
}

// reduceSim folds a run's final telemetry snapshot into the compared and
// reported quantities.
func reduceSim(snap telemetry.Snapshot) *simRun {
	r := &simRun{resTotal: snap.Resources.WeightedSeconds}
	d := newDigest()
	var hists [][]bucket
	for _, f := range snap.Functions {
		r.arrived += f.Arrived
		r.served += f.Served
		r.dropped += f.Dropped
		r.violations += f.Violations
		d.addString(f.Name)
		d.add(f.Arrived, f.Served, f.Dropped, f.Violations, f.ColdServed, f.Batches,
			uint64(f.Launches), uint64(f.ColdLaunches))
		h := make([]bucket, 0, len(f.LatencyBuckets))
		var prev uint64
		for _, b := range f.LatencyBuckets {
			upper := b.UpperSeconds * 1e3
			h = append(h, bucket{lower: lowerEdgeMs(upper), upper: upper, count: b.CumulativeCount - prev})
			d.add(b.CumulativeCount)
			prev = b.CumulativeCount
		}
		hists = append(hists, h)
	}
	r.latency = mergeBuckets(hists...)
	// Resource-seconds after the warm-up: the series holds one point per
	// allocation change, each value holding until the next point.
	from, to := float64(simWarmup.Milliseconds()), float64(simDuration.Milliseconds())
	series := snap.Resources.Series
	for i, p := range series {
		end := to
		if i+1 < len(series) {
			end = series[i+1].AtMs
		}
		if lo, hi := max(p.AtMs, from), min(end, to); hi > lo {
			r.resSeconds += p.Weighted * (hi - lo) / 1e3
		}
	}
	d.addFloat(r.resTotal)
	d.addFloat(r.resSeconds)
	r.digest = d.sum()
	return r
}

// histEdgesMs are the upper edges of the repository's latency histogram,
// in ms; a bin's lower edge is the edge before its upper one.
var histEdgesMs = func() []float64 {
	edges := make([]float64, metrics.HistBuckets)
	for b := range edges {
		edges[b] = metrics.BucketUpper(b).Seconds() * 1e3
	}
	return edges
}()

func lowerEdgeMs(upper float64) float64 {
	// The first edge not below upper (within rounding) is the bin's own.
	i, _ := slices.BinarySearchFunc(histEdgesMs, upper*(1-1e-9), func(e, t float64) int {
		if e < t {
			return -1
		}
		return 1
	})
	if i == 0 {
		return 0
	}
	return histEdgesMs[i-1]
}

func (s *simFleetWorkload) segment(tr *tracer) (segment, error) {
	root := tr.begin("segment", -1, 0)
	defer tr.end(root)
	if tr != nil && s.obs == nil {
		s.obs = newSimObserver()
	}
	cell := s.next
	s.next = (s.next + 1) % simCells
	t0 := time.Now()
	run, err := s.repetition(tr, root, cell, s.obs)
	if err != nil {
		return segment{}, err
	}
	if tr != nil {
		s.tracedWall += time.Since(t0)
		if err := s.obs.conserved(); err != nil {
			return segment{}, err
		}
	}
	if s.first[cell] == nil {
		s.first[cell] = run
	}
	if run.digest != s.first[cell].digest {
		return segment{}, fmt.Errorf("cell %d: repetition digest %016x differs from its first repetition's %016x: the simulator is not deterministic",
			cell, run.digest, s.first[cell].digest)
	}
	// An operation is one simulated request, served or dropped: a drop is
	// a policy outcome (it misses its SLO in slo_attainment), not a
	// failed operation of the benchmark.
	return segment{ops: int64(run.arrived)}, nil
}

// report: the fleet's policy outcomes, summed over the cells. Every
// cell has run at least once (the protocol's minimum segment count is
// the cell count) and all of a cell's repetitions were identical.
func (s *simFleetWorkload) report(wallClock) (map[string]float64, error) {
	var met, answered, resSeconds float64
	var hists [][]bucket
	for c, r := range s.first {
		if r == nil {
			return nil, fmt.Errorf("cell %d never ran: fewer than %d segments", c, simCells)
		}
		met += float64(r.served - r.violations)
		answered += float64(r.served + r.dropped)
		resSeconds += r.resSeconds
		hists = append(hists, r.latency)
	}
	if met == 0 || resSeconds <= 0 {
		return nil, fmt.Errorf("degenerate run: %g requests met their SLO on %g resource-seconds", met, resSeconds)
	}
	latency := mergeBuckets(hists...)
	return map[string]float64{
		"latency_p50_ms":       bucketQuantile(latency, 0.50),
		"latency_p99_ms":       bucketQuantile(latency, 0.99),
		"slo_attainment":       met / answered,
		"goodput_per_resource": met / resSeconds,
	}, nil
}

func (s *simFleetWorkload) minSegments() int { return simCells }

func (s *simFleetWorkload) close() {}

// simObserver is the benchmark's runtime.Observer on the simulator: it
// counts every event per function for the conservation check, and keeps
// the per-request decomposition for the per-layer metrics. The engine
// calls it from its single event loop.
type simObserver struct {
	runtime.NopObserver
	fns                     map[string]*simCounts
	events                  int64
	queueNs                 []int64
	coldNs, execNs          int64
	coldServed              int64
	batches, batched        int64
	launches, reclaims      int64
	tierStarts, dramStarts  int64
	servedAll, arrivedAll   int64
	droppedAll              int64
	lastAlloc               perf.Resources
	lastAllocAt, resSeconds float64
}

type simCounts struct{ arrived, served, dropped int64 }

func newSimObserver() *simObserver {
	return &simObserver{fns: map[string]*simCounts{}, queueNs: make([]int64, 0, 1<<21)}
}

func (o *simObserver) counts(fn string) *simCounts {
	c := o.fns[fn]
	if c == nil {
		c = &simCounts{}
		o.fns[fn] = c
	}
	return c
}

func (o *simObserver) RequestArrived(fn string, _ time.Duration) {
	o.events++
	o.arrivedAll++
	o.counts(fn).arrived++
}

func (o *simObserver) RequestEnqueued(string, int, time.Duration) { o.events++ }

func (o *simObserver) BatchSubmitted(_ string, _, size int, _ time.Duration) {
	o.events++
	o.batches++
	o.batched += int64(size)
}

func (o *simObserver) RequestServed(fn string, s metrics.Sample, _ time.Duration) {
	o.events++
	o.servedAll++
	o.counts(fn).served++
	o.queueNs = append(o.queueNs, int64(s.Queue))
	o.coldNs += int64(s.Cold)
	o.execNs += int64(s.Exec)
	if s.Cold > 0 {
		o.coldServed++
	}
}

func (o *simObserver) RequestDropped(fn string, _ time.Duration) {
	o.events++
	o.droppedAll++
	o.counts(fn).dropped++
}

func (o *simObserver) InstanceLaunched(string, int, bool, time.Duration, time.Duration) {
	o.events++
	o.launches++
}

func (o *simObserver) InstanceReclaimed(string, int, time.Duration) {
	o.events++
	o.reclaims++
}

func (o *simObserver) InstanceStartup(_ string, _ int, bd artifact.Breakdown, _ time.Duration) {
	o.events++
	o.tierStarts++
	if bd.From == artifact.TierDRAM {
		o.dramStarts++
	}
}

func (o *simObserver) AllocationChanged(alloc perf.Resources, now time.Duration) {
	o.events++
	at := now.Seconds()
	if at >= o.lastAllocAt { // a time that runs backwards is the next repetition starting
		o.resSeconds += o.lastAlloc.Weighted() * (at - o.lastAllocAt)
	}
	o.lastAlloc, o.lastAllocAt = alloc, at
}

// conserved is the simulator's conservation law: once the queues have
// drained, every request that arrived at a function was either served
// or dropped.
func (o *simObserver) conserved() error {
	names := make([]string, 0, len(o.fns))
	for name := range o.fns {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if c := o.fns[name]; c.arrived != c.served+c.dropped {
			return fmt.Errorf("conservation broken for %s: arrived %d != served %d + dropped %d",
				name, c.arrived, c.served, c.dropped)
		}
	}
	return nil
}
