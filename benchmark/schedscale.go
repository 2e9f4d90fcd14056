package main

// schedscale.go is the control-plane workload: scheduler.Plan.Schedule
// (Algorithm 1) on a 20 000-server sharded cluster held at a steady
// 40 000 live instances. Each operation releases one live instance and
// places one new one, so every placement pays the index churn a
// long-running cluster sees; this is the cost every scale-out waits on
// (Figure 17a). sim_fleet runs the same scheduler and cluster packages
// on 32 servers, where they are a small share of the time.

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/scheduler"
)

const (
	schedServers = 20_000
	schedShards  = 16
	schedLive    = 40_000 // instances the bulk fill places
	// Fixed work: release-one/place-one pairs.
	schedSegment        = 50_000
	schedPolicySegments = 4
	schedWarmup         = 250_000
	schedTraced         = 20_000
	schedReplay         = 30_000 // FitWorkers 1 against 2, traced pass
	// Per-call demand in RPS, drawn per operation.
	schedRateLo, schedRateHi = 5.0, 1200.0
)

// schedFunctions are the four plans placements are drawn from.
var schedFunctions = []struct {
	model string
	slo   time.Duration
}{
	{"ResNet-50", 200 * time.Millisecond},
	{"MobileNet", 100 * time.Millisecond},
	{"TextCNN-69", 150 * time.Millisecond},
	{"SSD", 300 * time.Millisecond},
}

// liveInstance is one placed instance the workload may later release.
type liveInstance struct {
	server int
	res    perf.Resources
	memMB  int
}

type schedScaleWorkload struct {
	seed int64
	rng  *rand.Rand // the operation stream: victim, plan and rate per pair

	pred   scheduler.Predictor
	cl     *cluster.Cluster
	plans  []*scheduler.Plan
	live   []liveInstance
	lat    []int64
	booked []booked // audit's scratch space

	bulkPlaced int
	bulkWall   time.Duration

	// The policy outcomes are reported from the first schedPolicySegments
	// measured segments: how many segments fit in --seconds depends on the
	// host, the first ones' operations only on the seed.
	policy   schedOutcome
	segments int
}

// schedOutcome is the deterministic part of a run of pairs.
type schedOutcome struct {
	digest                uint64
	placed                int64
	demanded, absorbed    float64 // RPS
	resources             float64 // beta-weighted units allocated by the placements
	fragmentation         float64
	activeServers, failed int64
}

func newSchedScale(seed int64) *schedScaleWorkload {
	return &schedScaleWorkload{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// setup profiles the operator database, builds the plans, bulk-fills an
// empty cluster, and churns it to its steady state.
func (s *schedScaleWorkload) setup(tr *tracer) error {
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)
	id := tr.begin("profiler.NewDB", root, 0)
	db := profiler.NewDB(profiler.DefaultDBOptions())
	tr.end(id)
	s.pred = scheduler.NewPredictorCache(profiler.NewPredictor(db))
	var err error
	if s.cl, s.plans, s.live, err = s.fill(tr, root, 1); err != nil {
		return err
	}
	s.lat = make([]int64, max(schedSegment, schedWarmup))
	s.booked = make([]booked, schedServers)
	if out := s.churn(nil, -1, s.cl, s.plans, &s.live, s.rng, schedWarmup); out.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d placements found no server", out.failed, schedWarmup)
	}
	return nil
}

// fill builds a cluster and the four plans with the given FitWorkers and
// places schedLive instances in bulk, a quarter per function.
func (s *schedScaleWorkload) fill(tr *tracer, parent int32, fitWorkers int) (*cluster.Cluster, []*scheduler.Plan, []liveInstance, error) {
	id := tr.begin("cluster.New", parent, 0)
	cl := cluster.New(cluster.Options{Servers: schedServers, Shards: schedShards})
	tr.end(id)
	var plans []*scheduler.Plan
	live := make([]liveInstance, 0, schedLive)
	for _, f := range schedFunctions {
		fn := scheduler.Function{Name: f.model, Model: model.MustGet(f.model), SLO: f.slo}
		id := tr.begin("scheduler.BuildPlan", parent, 0)
		bulk := scheduler.BuildPlan(fn, s.pred, scheduler.Options{
			MaxInstancesPerCall: schedLive / len(schedFunctions), FitWorkers: fitWorkers})
		plans = append(plans, scheduler.BuildPlan(fn, s.pred, scheduler.Options{
			MaxInstancesPerCall: 1, FitWorkers: fitWorkers}))
		tr.end(id)
		if !bulk.Feasible() {
			return nil, nil, nil, fmt.Errorf("no configuration of %s meets %v", f.model, f.slo)
		}
		id = tr.begin("scheduler.Schedule.bulk", parent, 0)
		t0 := time.Now()
		placed, _ := bulk.Schedule(1e12, cl)
		s.bulkWall += time.Since(t0)
		tr.end(id)
		s.bulkPlaced += len(placed)
		for _, d := range placed {
			live = append(live, liveInstance{d.Server, d.Res, fn.Model.MemoryMB})
		}
	}
	if len(live) != schedLive {
		return nil, nil, nil, fmt.Errorf("bulk fill placed %d instances, want %d", len(live), schedLive)
	}
	return cl, plans, live, nil
}

// churn runs n release-one/place-one pairs drawn from rng and returns
// their deterministic outcome; the wall time of each Schedule call goes
// to s.lat.
func (s *schedScaleWorkload) churn(tr *tracer, parent int32, cl *cluster.Cluster, plans []*scheduler.Plan,
	livep *[]liveInstance, rng *rand.Rand, n int) *schedOutcome {
	live := *livep
	out := &schedOutcome{}
	d := newDigest()
	for i := 0; i < n; i++ {
		j := rng.Intn(len(live))
		p := plans[rng.Intn(len(plans))]
		rate := schedRateLo + rng.Float64()*(schedRateHi-schedRateLo)

		victim := live[j]
		id := tr.begin("cluster.Release", parent, int64(i))
		cl.Release(victim.server, victim.res, victim.memMB)
		tr.end(id)

		id = tr.begin("scheduler.Schedule", parent, int64(i))
		t0 := time.Now()
		placed, _ := p.Schedule(rate, cl)
		s.lat[i] = int64(time.Since(t0))
		tr.end(id)

		out.demanded += rate
		if len(placed) != 1 {
			// Nothing fits: the instance is gone and the pair failed.
			out.failed++
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		dec := placed[0]
		live[j] = liveInstance{dec.Server, dec.Res, p.Fn.Model.MemoryMB}
		out.placed++
		out.absorbed += min(rate, dec.Bounds.RUp)
		out.resources += dec.Res.Weighted()
		d.add(uint64(dec.Server), uint64(dec.B), uint64(dec.Res.CPU), uint64(dec.Res.GPU))
	}
	*livep = live
	out.digest = d.sum()
	out.fragmentation = cl.FragmentationRatio()
	out.activeServers = int64(cl.ActiveServers())
	return out
}

// booked is what the live instances placed on one server add up to.
type booked struct {
	res perf.Resources
	mem int
}

// audit is the placement check: on every server the free resources are
// within [0, capacity], and what the cluster books as allocated is
// exactly the sum of the live instances placed there. want is scratch
// space of one entry per server, reused because audit runs inside the
// measured segments.
func audit(cl *cluster.Cluster, live []liveInstance, want []booked) error {
	clear(want)
	for _, in := range live {
		b := &want[in.server]
		b.res = b.res.Add(in.res)
		b.mem += in.memMB
	}
	var err error
	cl.EachServer(func(sv *cluster.Server) bool {
		switch got := sv.Allocated(); {
		case !sv.Free.NonNegative() || !sv.Capacity.Fits(got):
			err = fmt.Errorf("server %d over capacity: allocated %v of %v", sv.ID, got, sv.Capacity)
		case got != want[sv.ID].res || sv.MemCapMB-sv.MemFreeMB != want[sv.ID].mem:
			err = fmt.Errorf("server %d books %v / %d MB but hosts %v / %d MB",
				sv.ID, got, sv.MemCapMB-sv.MemFreeMB, want[sv.ID].res, want[sv.ID].mem)
		}
		return err == nil
	})
	return err
}

func (s *schedScaleWorkload) segment(tr *tracer) (segment, error) {
	root := tr.begin("segment", -1, 0)
	defer tr.end(root)
	n := schedSegment
	if tr != nil {
		n = schedTraced
	}
	out := s.churn(tr, root, s.cl, s.plans, &s.live, s.rng, n)
	if err := audit(s.cl, s.live, s.booked); err != nil {
		return segment{}, err
	}
	if s.segments++; s.segments <= schedPolicySegments {
		s.policy.placed += out.placed
		s.policy.demanded += out.demanded
		s.policy.absorbed += out.absorbed
		s.policy.resources += out.resources
		s.policy.fragmentation, s.policy.activeServers = out.fragmentation, out.activeServers
	}
	return segment{ops: out.placed, failed: out.failed, latNs: s.lat[:n]}, nil
}

func (s *schedScaleWorkload) report(wallClock) (map[string]float64, error) {
	o := s.policy
	return map[string]float64{
		"slo_attainment":           o.absorbed / o.demanded,
		"goodput_per_resource":     o.absorbed / o.resources,
		"scheduler.placed":         float64(o.placed),
		"scheduler.residual_share": 1 - o.absorbed/o.demanded,
		"cluster.fragmentation":    o.fragmentation,
		"cluster.active_servers":   float64(o.activeServers),
	}, nil
}

func (s *schedScaleWorkload) minSegments() int { return wallClockSegments }

func (s *schedScaleWorkload) close() {}
