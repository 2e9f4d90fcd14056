// Package scheduler implements INFless's greedy instance scheduling
// (Section 3.4, Algorithm 1). Given a function's residual request rate,
// it repeatedly chooses a batch size, a CPU/GPU configuration and a
// server placement that maximize the resource-efficiency metric
//
//	e_ij = (r_up / (beta*c_i + g_i)) / (1 - (beta*c_i + g_i)/(beta*C_j + G_j))
//
// (Eq. 10) — high throughput per unit of resource, low fragmentation —
// under the SLO feasibility constraints of Eq. 1. The underlying
// optimization problem (Eq. 2-9) is NP-hard (bin packing), hence the
// greedy approach. The paper reports ~0.5 ms per placed instance; here a
// placement costs about a microsecond on a 20,000-server cluster
// (`go run ./benchmark --workload sched_scale`): the candidate grid is
// evaluated once per function (Plan), pass 1 stops at the ranked prefix
// cut, and each placement query walks the cluster's free-vector index
// instead of its servers.
package scheduler

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
)

// Predictor estimates batch execution time for a model on a
// configuration; internal/profiler's COP predictor implements it.
type Predictor interface {
	Predict(m *model.Model, b int, res perf.Resources) time.Duration
}

// Function describes one deployed inference function for scheduling.
type Function struct {
	Name  string
	Model *model.Model
	SLO   time.Duration
}

// Candidate is one feasible <batchsize, resources> instance configuration
// together with its predicted execution time and Eq. 1 rate bounds.
type Candidate struct {
	B      int
	Res    perf.Resources
	TExec  time.Duration
	Bounds batching.Bounds
}

// Decision is one placement produced by Schedule.
type Decision struct {
	Server int
	Candidate
}

// Options tune plan construction and scheduling.
type Options struct {
	// DisableRS is the RS-ablation of Figure 11: ignore the
	// resource-efficiency metric and always pick the configuration with
	// the maximum throughput (r_up), placed first-fit.
	DisableRS bool
	// ForceBatchOne is the BB-ablation of Figure 11: disable built-in
	// batching by considering only batchsize 1.
	ForceBatchOne bool
	// MaxInstancesPerCall caps runaway scale-outs (0 = 10,000).
	MaxInstancesPerCall int
	// FitWorkers fans each pass-1 placement query across the cluster's
	// shards on a bounded worker pool (cluster.FitPool); 0 or 1 queries
	// serially, values above the shard count are clamped. Decisions are
	// identical at any setting — the pool merges per-shard answers by the
	// same (key, id) rule the serial path uses.
	FitWorkers int
}

func (o *Options) defaults() {
	if o.MaxInstancesPerCall == 0 {
		o.MaxInstancesPerCall = 10000
	}
}

// Plan is a function's precomputed, SLO-filtered candidate set. Building
// a plan runs the predictor over the whole configuration grid once; the
// per-scale-out Schedule calls then reuse it, which is what keeps the
// scheduling overhead at sub-millisecond per instance (Figure 17a).
//
// A Plan is not safe for concurrent use: Schedule reuses per-plan
// scratch buffers to keep the placement loop allocation-free. Build one
// plan per goroutine (plans are cheap once the predictor is cached).
type Plan struct {
	Fn   Function
	opts Options
	// cands are grouped by batch size, largest batch first (Algorithm 1
	// explores large batches first because batching contributes most to
	// throughput).
	cands map[int][]Candidate
	order []int // batch sizes, descending
	// ranked holds each batch size's candidates sorted by descending
	// throughput-per-resource (sched score ties broken by cands position),
	// powering scheduleOne's prefix cut: once the best fitting candidate
	// is known, everything below 95% of its ratio is out of the race
	// before any placement query runs.
	ranked map[int][]scored

	// Scratch buffers reused across scheduleOne calls (placement runs in
	// the autoscaler's per-tick hot loop).
	fits  []fit
	avail []Candidate
}

// scored is a plan candidate with its precomputed Eq. 10 throughput-
// per-resource ratio and its position in the BuildPlan grid order (the
// pass-2 tie-break).
type scored struct {
	c      Candidate
	perRes float64 // Bounds.RUp / Res.Weighted()
	idx    int
}

// fit is scheduleOne's per-candidate best-host record.
type fit struct {
	c      Candidate
	srv    int
	freeW  float64
	perRes float64
	idx    int
}

// byGridOrder orders fits by their candidates' BuildPlan grid position.
func byGridOrder(a, b fit) int { return a.idx - b.idx }

// BuildPlan evaluates the profiled configuration grid
// (profiler.DefaultBatches x DefaultCPUGrid x DefaultGPUGrid) for fn and
// keeps every candidate that can meet the SLO (Algorithm 1's
// AvailableConfig filter, minus the rate check which depends on the
// residual RPS at call time).
func BuildPlan(fn Function, pred Predictor, opts Options) *Plan {
	opts.defaults()
	if fn.Model == nil {
		panic("scheduler: plan for nil model")
	}
	if fn.SLO <= 0 {
		panic("scheduler: non-positive SLO for " + fn.Name)
	}
	p := &Plan{Fn: fn, opts: opts, cands: map[int][]Candidate{}}
	batches := profiler.DefaultBatches
	if opts.ForceBatchOne {
		batches = []int{1}
	}
	for _, b := range batches {
		if b > fn.Model.MaxBatch {
			continue
		}
		for _, c := range profiler.DefaultCPUGrid {
			for _, g := range profiler.DefaultGPUGrid {
				if c == 0 && g == 0 {
					continue
				}
				res := perf.Resources{CPU: c, GPU: g}
				texec := pred.Predict(fn.Model, b, res)
				bounds, err := batching.RateBounds(texec, fn.SLO, b)
				if err != nil {
					continue // infeasible under the SLO
				}
				p.cands[b] = append(p.cands[b], Candidate{B: b, Res: res, TExec: texec, Bounds: bounds})
			}
		}
	}
	for b := range p.cands {
		p.order = append(p.order, b)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(p.order)))
	p.ranked = make(map[int][]scored, len(p.cands))
	for b, cs := range p.cands {
		rs := make([]scored, len(cs))
		for i, c := range cs {
			// The exact expression pass 2 normalizes by; precomputing it
			// changes no bits.
			rs[i] = scored{c: c, perRes: c.Bounds.RUp / c.Res.Weighted(), idx: i}
		}
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].perRes > rs[b].perRes })
		p.ranked[b] = rs
	}
	return p
}

// Feasible reports whether any configuration at all can meet the SLO.
func (p *Plan) Feasible() bool { return len(p.order) > 0 }

// Schedule implements Algorithm 1: it places instances for residual load
// rps on cl, allocating cluster resources as it goes, and returns the
// decisions plus any load that could not be placed (cluster exhausted).
//
// With Options.FitWorkers > 1 the placement queries inside each
// scheduleOne fan across the cluster's shards on a bounded worker pool;
// the pool lives for the duration of this call. The fan-out changes
// wall-clock only, never decisions (TestShardedFitWorkersEquivalence).
func (p *Plan) Schedule(rps float64, cl *cluster.Cluster) (placed []Decision, residual float64) {
	pool := cl.NewFitPool(p.opts.FitWorkers)
	defer pool.Close()
	residual = rps
	for residual > 0 && len(placed) < p.opts.MaxInstancesPerCall {
		d, ok := p.scheduleOne(residual, pool)
		if !ok {
			break
		}
		if err := cl.Allocate(d.Server, d.Res, p.Fn.Model.MemoryMB); err != nil {
			// scheduleOne only proposes fitting placements.
			panic("scheduler: placement no longer fits: " + err.Error())
		}
		placed = append(placed, d)
		residual -= d.Bounds.RUp
	}
	if residual < 0 {
		residual = 0
	}
	return placed, residual
}

// scheduleOne performs one iteration of Algorithm 1's outer loop: find
// the best (candidate, server) pair for the current residual RPS.
//
// Placement queries go through the cluster's sharded free-capacity
// indexes (pool.BestFit / pool.FirstFit): per candidate, a walk over the
// occupied free vectors at or above the candidate's weight — a few
// integer compares and one bitmap scan, independent of the server count
// within a shard — instead of a scan over every server, which is what
// keeps one autoscaling tick sub-millisecond even on a 100k-server
// cluster (Figure 17a). The indexes answer exactly the query the old
// linear scan did — least free weighted capacity among fitting servers,
// lowest id on ties — so decisions are bit-identical (see
// TestIndexedMatchesLinearScan). With serial queries the call allocates
// nothing; Schedule's result slice is the only allocation of a
// placement (TestSingleInstanceScheduleAllocatesOnlyItsResult).
//
// Pass 1 walks the batch size's candidates in descending throughput-
// per-resource order (Plan.ranked). The first candidate that fits
// anywhere fixes pass 2's normalization ceiling — nothing later in the
// order can beat it — so the walk stops at the 95% score cut instead of
// querying a placement for all ~40 grid configurations: typically 1-5
// queries per decision. The cut uses the same float expression as the
// old pass-2 filter, so exactly the candidates it would have discarded
// are skipped.
//
//lint:hotpath
func (p *Plan) scheduleOne(rps float64, pool *cluster.FitPool) (Decision, bool) {
	memMB := p.Fn.Model.MemoryMB
	if p.opts.DisableRS {
		return p.scheduleOneNoRS(rps, pool)
	}
	for _, b := range p.order {
		// The numerator uses each candidate's full r_up, as in Eq. 10.
		// (Capping it by the residual demand was tried and rejected: it
		// biases tail scale-outs toward minuscule 1-core instances whose
		// requests then queue behind 100ms-scale executions and blow the
		// SLO. Over-provisioning on the *last* instance of a scale-out is
		// bounded by one instance and self-corrects at the next tick via
		// the alpha rate controller.)
		//
		// Pass 1: walk candidates by descending r_up-per-resource, keeping
		// each one's best host — the fullest fitting server, which
		// maximizes e_ij for that candidate.
		fits := p.fits[:0]
		maxPerRes := 0.0
		for _, sc := range p.ranked[b] {
			if b != 1 && rps < sc.c.Bounds.RLow {
				continue // Algorithm 1's AvailableConfig rate filter
			}
			if maxPerRes > 0 && sc.perRes/maxPerRes < 0.95 {
				// Same expression as the score filter below; the ranking is
				// monotone in perRes, so every later candidate fails it too.
				break
			}
			srv, freeW, ok := pool.BestFit(sc.c.Res, memMB)
			if !ok {
				continue
			}
			if maxPerRes == 0 {
				maxPerRes = sc.perRes // best fitting ratio: first fit in rank order
			}
			fits = append(fits, fit{c: sc.c, srv: srv, freeW: freeW, perRes: sc.perRes, idx: sc.idx})
		}
		p.fits = fits // keep any capacity growth for the next call
		if len(fits) == 0 {
			// No server can host any I_b member; smaller batches need
			// fewer resources, so keep trying down the batch order.
			continue
		}
		// Pass 2: score the placeable candidates. The normalized
		// throughput score dominates: candidates off the best RPS/resource
		// ratio are never worth their fragmentation savings (1/frag is
		// unbounded, so without this cut a server-filling whale config
		// would always win). Fragmentation breaks near-ties among
		// candidates within 5% of the best ratio. Scoring runs in grid
		// order — the order the pre-cut code used — so score ties keep
		// resolving to the same candidate.
		slices.SortFunc(fits, byGridOrder)
		var best Decision
		bestE := math.Inf(-1)
		for _, f := range fits {
			num := f.perRes / maxPerRes
			e := efficiency(num, f.c.Res.Weighted(), f.freeW, false, f.c.Bounds.RUp)
			if e > bestE {
				bestE = e
				best = Decision{Server: f.srv, Candidate: f.c}
			}
		}
		return best, true
	}
	return Decision{}, false
}

// scheduleOneNoRS is the Figure 11 RS-ablation path: ignore resource
// efficiency, chase raw throughput, place first-fit. It keeps the full
// two-pass walk over every candidate — the ablation ranks by r_up, so
// the throughput-per-resource prefix cut does not apply.
func (p *Plan) scheduleOneNoRS(rps float64, pool *cluster.FitPool) (Decision, bool) {
	memMB := p.Fn.Model.MemoryMB
	for _, b := range p.order {
		ib := p.available(b, rps)
		if len(ib) == 0 {
			continue
		}
		fits := p.fits[:0]
		for _, c := range ib {
			srv, freeW, ok := pool.FirstFit(c.Res, memMB)
			if !ok {
				continue
			}
			fits = append(fits, fit{c: c, srv: srv, freeW: freeW})
		}
		p.fits = fits
		if len(fits) == 0 {
			continue
		}
		var best Decision
		bestE := math.Inf(-1)
		for _, f := range fits {
			e := efficiency(0, 0, f.freeW, true, f.c.Bounds.RUp)
			if e > bestE {
				bestE = e
				best = Decision{Server: f.srv, Candidate: f.c}
			}
		}
		return best, true
	}
	return Decision{}, false
}

// efficiency computes Eq. 10. A placement that exactly fills a server has
// zero fragmentation and scores highest. With DisableRS the score is just
// raw throughput, reproducing the Figure 11 ablation.
func efficiency(num, w, freeW float64, disableRS bool, rup float64) float64 {
	if disableRS {
		return rup
	}
	frag := 1 - w/freeW
	// An exact fit has zero fragmentation; floor the denominator so the
	// score stays finite and the throughput numerator keeps its say.
	if frag < 1e-3 {
		frag = 1e-3
	}
	return num / frag
}

// available is Algorithm 1's AvailableConfig: candidates at batch size b
// whose lower rate bound is satisfied by the residual RPS. Batch size 1
// has no saturation requirement. The returned slice aliases the plan's
// scratch buffer and is valid until the next available call.
func (p *Plan) available(b int, rps float64) []Candidate {
	all := p.cands[b]
	if b == 1 {
		return all
	}
	out := p.avail[:0]
	for _, c := range all {
		if rps >= c.Bounds.RLow {
			out = append(out, c)
		}
	}
	p.avail = out
	return out
}

// PredictorCache memoizes Predict calls per (model, b, resources); plan
// construction sweeps the grid once per function, and repeated rebuilds
// (e.g. in simulations that re-plan on SLO changes) become free. It is
// safe for concurrent use, so one cache can back plan construction
// across a parallel experiment runner's workers.
type PredictorCache struct {
	Inner Predictor
	mu    sync.RWMutex
	cache map[predKey]time.Duration
}

type predKey struct {
	model string
	b     int
	cpu   int
	gpu   int
}

// NewPredictorCache wraps pred with memoization.
func NewPredictorCache(pred Predictor) *PredictorCache {
	return &PredictorCache{Inner: pred, cache: map[predKey]time.Duration{}}
}

// Predict implements Predictor.
func (pc *PredictorCache) Predict(m *model.Model, b int, res perf.Resources) time.Duration {
	k := predKey{m.Name, b, res.CPU, res.GPU}
	pc.mu.RLock()
	t, ok := pc.cache[k]
	pc.mu.RUnlock()
	if ok {
		return t
	}
	t = pc.Inner.Predict(m, b, res)
	pc.mu.Lock()
	pc.cache[k] = t
	pc.mu.Unlock()
	return t
}
