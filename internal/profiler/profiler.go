// Package profiler implements INFless's lightweight Combined Operator
// Profiling (COP, Section 3.3 of the paper).
//
// Instead of profiling every deployed model offline (too costly when
// hundreds of models are deployed or updated daily), INFless profiles the
// shared *operators* once, stores their profiles in a database keyed by
// <operator, batchsize, CPU, GPU>, and predicts a model's latency by
// combining operator profiles along its DAG: sequence chains sum, parallel
// branches max.
//
// An operator profile is the paper's 5-tuple <p, b, c, g, t>: the
// database measures each operator class over a discrete grid of input
// sizes p (expressed as per-item GFLOPs), batch sizes and resource
// configurations, and answers queries by linear interpolation between the
// two nearest measured input sizes. Measurements carry realistic
// run-to-run noise, and the combiner ignores branch-contention effects,
// so predictions deviate from the simulator's ground truth by a few
// percent — reproducing the <10% mean prediction error of Figure 8.
package profiler

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
)

// DefaultBatches is the batch-size grid (powers of two up to the paper's
// maximum allowable batch size of 32).
var DefaultBatches = []int{1, 2, 4, 8, 16, 32}

// DefaultCPUGrid and DefaultGPUGrid are the discrete resource values the
// profiler measures (Section 3.3: "we merely consider some discrete
// values in their separate feasible ranges").
var (
	DefaultCPUGrid = []int{0, 1, 2, 4, 8, 16}
	DefaultGPUGrid = []int{0, 1, 2, 3, 4, 6, 8, 10}
)

// Key identifies one operator profile entry.
type Key struct {
	Class string
	B     int
	CPU   int
	GPU   int
}

// Entry holds measured times over the input-size grid for one
// (class, b, c, g) configuration: Times[i] is the measured invocation
// time at per-item work WorkGrid[i].
type Entry struct {
	Times []time.Duration
}

// WorkGrid is the per-item work grid (GFLOPs per input item) at which
// every operator configuration is profiled. Log-spaced to cover MNIST's
// micro-ops through BERT's largest GEMMs.
var WorkGrid = []float64{
	0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1, 0.4, 1.6, 6.4, 25.6,
}

// DBOptions configures profile-database construction.
type DBOptions struct {
	Batches []int
	CPUGrid []int
	GPUGrid []int
	// NoiseSD is the relative measurement noise of each profiling run.
	// Zero disables noise (useful in tests asserting exactness).
	NoiseSD float64
	Seed    int64
}

// DefaultDBOptions mirror the paper's setup: discrete grids and single-run
// measurements with a few percent of noise.
func DefaultDBOptions() DBOptions {
	return DBOptions{
		Batches: DefaultBatches,
		CPUGrid: DefaultCPUGrid,
		GPUGrid: DefaultGPUGrid,
		NoiseSD: 0.05,
		Seed:    1,
	}
}

// DB is the operator profile database. Build it once at platform start;
// reads are cheap and concurrency-safe after construction.
type DB struct {
	entries map[Key]Entry
	batches []int
	cpus    []int
	gpus    []int
}

// NewDB profiles every operator class in the perf catalog over the
// configured grid and returns the populated database.
func NewDB(opts DBOptions) *DB {
	if len(opts.Batches) == 0 {
		opts.Batches = DefaultBatches
	}
	if len(opts.CPUGrid) == 0 {
		opts.CPUGrid = DefaultCPUGrid
	}
	if len(opts.GPUGrid) == 0 {
		opts.GPUGrid = DefaultGPUGrid
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	db := &DB{
		entries: make(map[Key]Entry),
		batches: sortedCopy(opts.Batches),
		cpus:    sortedCopy(opts.CPUGrid),
		gpus:    sortedCopy(opts.GPUGrid),
	}
	classes := make([]string, 0, len(perf.Catalog))
	for name := range perf.Catalog {
		classes = append(classes, name)
	}
	sort.Strings(classes) // deterministic noise assignment
	for _, name := range classes {
		cls := perf.Catalog[name]
		for _, b := range db.batches {
			for _, c := range db.cpus {
				for _, g := range db.gpus {
					if c == 0 && g == 0 {
						continue
					}
					res := perf.Resources{CPU: c, GPU: g}
					db.entries[Key{name, b, c, g}] = measure(cls, b, res, opts.NoiseSD, rng)
				}
			}
		}
	}
	return db
}

// measure micro-benchmarks one operator configuration across the
// input-size grid, one (noisy) run per point.
func measure(cls *perf.OpClass, b int, res perf.Resources, noiseSD float64, rng *rand.Rand) Entry {
	times := make([]time.Duration, len(WorkGrid))
	for i, w := range WorkGrid {
		times[i] = noisy(cls.OpTime(w, 1, b, res), noiseSD, rng)
	}
	return Entry{Times: times}
}

func noisy(d time.Duration, sd float64, rng *rand.Rand) time.Duration {
	if sd <= 0 {
		return d
	}
	f := 1 + rng.NormFloat64()*sd
	if f < 0.2 {
		f = 0.2
	}
	return time.Duration(float64(d) * f)
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// OpTime predicts the execution time of a single operator invocation with
// per-item work gflops at input scale p, batch b, on res. Off-grid
// configurations snap to the nearest profiled grid point (the scheduler
// only ever asks for grid configurations).
func (db *DB) OpTime(class string, gflops, p float64, b int, res perf.Resources) (time.Duration, error) {
	key := Key{class, snap(b, db.batches), snap(res.CPU, db.cpus), snap(res.GPU, db.gpus)}
	if key.CPU == 0 && key.GPU == 0 {
		key.CPU = db.cpus[1] // smallest non-zero
	}
	e, ok := db.entries[key]
	if !ok {
		return 0, fmt.Errorf("profiler: no profile for %+v", key)
	}
	return e.interp(gflops * p), nil
}

// interp linearly interpolates the measured times at per-item work w.
// The underlying cost model is affine in work, so linear interpolation is
// exact up to measurement noise; queries beyond the grid extrapolate from
// the nearest segment.
func (e Entry) interp(w float64) time.Duration {
	g := WorkGrid
	if w <= g[0] {
		return scaleSegment(g[0], g[1], e.Times[0], e.Times[1], w)
	}
	for i := 1; i < len(g); i++ {
		if w <= g[i] {
			return scaleSegment(g[i-1], g[i], e.Times[i-1], e.Times[i], w)
		}
	}
	n := len(g)
	return scaleSegment(g[n-2], g[n-1], e.Times[n-2], e.Times[n-1], w)
}

func scaleSegment(w0, w1 float64, t0, t1 time.Duration, w float64) time.Duration {
	frac := (w - w0) / (w1 - w0)
	d := float64(t0) + frac*float64(t1-t0)
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// snap returns the grid value closest to v (ties go low).
func snap(v int, grid []int) int {
	best := grid[0]
	bestD := math.Abs(float64(v - best))
	for _, g := range grid[1:] {
		if d := math.Abs(float64(v - g)); d < bestD {
			best, bestD = g, d
		}
	}
	return best
}

// Predictor combines operator profiles over a model's series-parallel DAG
// (chains sum, branches max) to estimate end-to-end batch execution time.
type Predictor struct {
	DB *DB
	// SafetyFactor inflates predictions to absorb prediction error; the
	// paper "increase[s] the prediction offset by 10% to reduce the risk
	// of SLO violations" => 1.10. A value of 0 means 1.0 (raw).
	SafetyFactor float64
	// InflateFactor is an extra multiplier used only by the OP-ablation
	// experiments (OP1.5 adds 50%, OP2 adds 100%). Zero means 1.0.
	InflateFactor float64
}

// NewPredictor returns a predictor with the paper's 10% safety offset.
func NewPredictor(db *DB) *Predictor {
	return &Predictor{DB: db, SafetyFactor: 1.10}
}

// Raw predicts batch execution time without any safety offset. This is
// the pure COP combination used for Figure 8's accuracy evaluation.
func (p *Predictor) Raw(m *model.Model, b int, res perf.Resources) time.Duration {
	return p.combine(m, m.Root, b, res)
}

// Predict returns the prediction used for scheduling decisions: the COP
// estimate inflated by the safety factor (and the ablation inflation, if
// configured).
func (p *Predictor) Predict(m *model.Model, b int, res perf.Resources) time.Duration {
	f := p.SafetyFactor
	if f == 0 {
		f = 1
	}
	if p.InflateFactor > 0 {
		f *= p.InflateFactor
	}
	return time.Duration(float64(p.Raw(m, b, res)) * f)
}

func (p *Predictor) combine(m *model.Model, n *model.Node, b int, res perf.Resources) time.Duration {
	switch n.Kind {
	case model.Leaf:
		t, err := p.DB.OpTime(n.Op.Class, n.Op.GFLOPs, m.InputScale, b, res)
		if err != nil {
			// The DB covers the whole catalog; a miss is a programming
			// error in grid handling, not a runtime condition.
			panic(err)
		}
		return t
	case model.Seq:
		var sum time.Duration
		for _, c := range n.Children {
			sum += p.combine(m, c, b, res)
		}
		return sum
	case model.Par:
		var max time.Duration
		for _, c := range n.Children {
			if t := p.combine(m, c, b, res); t > max {
				max = t
			}
		}
		return max
	}
	panic("profiler: invalid node kind")
}
