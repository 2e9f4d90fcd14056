// Package model represents inference models as series-parallel DAGs of
// operators, mirroring Section 3.3 of the INFless paper: "inference
// functions can be structured as a number of connected operators" whose
// graph "can be deconstructed into two basic structures, including a
// sequence chain and parallel branches".
//
// The package also carries the model zoo of Table 1 (11 production /
// MLPerf models) plus the two extra models referenced in the paper's text
// (ResNet-20 and DSSM-2365), and the ground-truth execution-time
// evaluator used by the simulator.
package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/tanklab/infless/internal/perf"
)

// Op is a single operator invocation site in a model's DAG.
type Op struct {
	ID     int
	Class  string  // key into perf.Catalog
	GFLOPs float64 // work per single input item at input scale 1

	class *perf.OpClass // perf.Catalog[Class], resolved by NewOp
}

// Kind discriminates SP-tree nodes.
type Kind int

const (
	Leaf Kind = iota // a single operator
	Seq              // children execute one after another
	Par              // children execute as parallel branches
)

// Node is a series-parallel tree node. The tree is the canonical structure
// consumed by Combined Operator Profiling: chains sum, branches max.
type Node struct {
	Kind     Kind
	Op       *Op // set when Kind == Leaf
	Children []*Node
}

// Model is one deployable inference model.
type Model struct {
	Name       string
	Params     int64   // network size (number of parameters)
	GFLOPs     float64 // total work per input item (Table 1)
	MemoryMB   int     // loaded footprint (weights + runtime)
	MaxBatch   int     // maximum allowable batch size (2^max)
	InputScale float64 // relative input size p (1.0 = nominal)
	Desc       string

	Root *Node
	ops  []*Op
}

// OpCount returns the total number of operator call sites.
func (m *Model) OpCount() int { return len(m.ops) }

// DistinctClasses returns the number of distinct operator classes used.
func (m *Model) DistinctClasses() int {
	seen := map[string]bool{}
	for _, o := range m.ops {
		seen[o.Class] = true
	}
	return len(seen)
}

// CallsPerClass returns how many times each operator class is invoked,
// sorted by descending count (Figure 7's histogram).
func (m *Model) CallsPerClass() []ClassStat {
	counts := map[string]int{}
	flops := map[string]float64{}
	for _, o := range m.ops {
		counts[o.Class]++
		flops[o.Class] += o.GFLOPs
	}
	var out []ClassStat
	for cls, n := range counts {
		out = append(out, ClassStat{Class: cls, Calls: n, GFLOPs: flops[cls]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Calls != out[j].Calls {
			return out[i].Calls > out[j].Calls
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// ClassStat aggregates per-operator-class statistics.
type ClassStat struct {
	Class     string
	Calls     int
	GFLOPs    float64
	TimeShare float64 // fraction of total execution time (when computed)
}

// TimeShareByClass computes each class's share of execution time on the
// given configuration (Figure 7's "execution time" dimension).
func (m *Model) TimeShareByClass(b int, res perf.Resources) []ClassStat {
	stats := m.CallsPerClass()
	total := time.Duration(0)
	byClass := map[string]time.Duration{}
	for _, o := range m.ops {
		t := o.class.OpTime(o.GFLOPs, m.InputScale, b, res)
		byClass[o.Class] += t
		total += t
	}
	for i := range stats {
		if total > 0 {
			stats[i].TimeShare = float64(byClass[stats[i].Class]) / float64(total)
		}
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].TimeShare != stats[j].TimeShare {
			return stats[i].TimeShare > stats[j].TimeShare
		}
		return stats[i].Class < stats[j].Class
	})
	return stats
}

// --- SP-tree construction helpers -------------------------------------

// NewOp creates a leaf node invoking class with the given per-item work.
// An unknown class panics here, at construction.
func NewOp(class string, gflops float64) *Node {
	return &Node{Kind: Leaf, Op: &Op{Class: class, GFLOPs: gflops, class: perf.Class(class)}}
}

// SeqOf composes children into a sequence chain.
func SeqOf(children ...*Node) *Node {
	return &Node{Kind: Seq, Children: children}
}

// ParOf composes children into parallel branches.
func ParOf(children ...*Node) *Node {
	return &Node{Kind: Par, Children: children}
}

// build finalizes a model: assigns operator IDs, flattens the op list and
// rescales per-op GFLOPs so they sum exactly to the Table 1 total.
func build(m *Model) *Model {
	if m.Root == nil {
		panic("model: nil root for " + m.Name)
	}
	var walk func(n *Node)
	sum := 0.0
	var ops []*Op
	walk = func(n *Node) {
		switch n.Kind {
		case Leaf:
			n.Op.ID = len(ops)
			ops = append(ops, n.Op)
			sum += n.Op.GFLOPs
		default:
			for _, c := range n.Children {
				walk(c)
			}
		}
	}
	walk(m.Root)
	if len(ops) == 0 {
		panic("model: empty DAG for " + m.Name)
	}
	if sum <= 0 {
		panic("model: non-positive total work for " + m.Name)
	}
	scale := m.GFLOPs / sum
	for _, o := range ops {
		o.GFLOPs *= scale
	}
	m.ops = ops
	if m.InputScale == 0 {
		m.InputScale = 1
	}
	if m.MaxBatch == 0 {
		m.MaxBatch = 32
	}
	return m
}

// --- Ground-truth execution -------------------------------------------

// ExecOptions tunes ground-truth evaluation.
type ExecOptions struct {
	// Contention is how much parallel branches interfere when they share
	// an instance's resources: actual branch time = max + Contention *
	// (sum - max). Zero means perfectly overlapped branches (the COP
	// assumption); the default models realistic partial overlap.
	Contention float64
	// NoiseSD is the relative standard deviation of multiplicative
	// run-to-run noise, drawn from Rng; with a nil Rng there is none.
	NoiseSD float64
	Rng     *rand.Rand
}

// Jitter applies the run-to-run noise to a noise-free execution time t:
// one draw from Rng, a factor of 1 + N(0,1)·NoiseSD floored at 0.5. It is
// the whole of what separates two executions of one batch configuration,
// so a caller that keeps ExecTime's noise-free value (NoiseSD 0 or a nil
// Rng) gets the next execution's time from Jitter alone.
func (o ExecOptions) Jitter(t time.Duration) time.Duration {
	if o.NoiseSD <= 0 || o.Rng == nil {
		return t
	}
	f := 1 + o.Rng.NormFloat64()*o.NoiseSD
	if f < 0.5 {
		f = 0.5
	}
	return time.Duration(float64(t) * f)
}

// DefaultExecOptions are the simulator's ground-truth settings: branches
// overlap imperfectly and runs jitter a few percent, which is what makes
// COP's prediction error non-zero (Figure 8 reports <10% mean error).
func DefaultExecOptions(rng *rand.Rand) ExecOptions {
	return ExecOptions{Contention: 0.35, NoiseSD: 0.025, Rng: rng}
}

// ExecTime returns the ground-truth wall time of executing one batch of b
// inputs on res. This is what the simulator charges; the COP predictor in
// internal/profiler must approximate it from operator profiles alone.
func (m *Model) ExecTime(b int, res perf.Resources, opt ExecOptions) time.Duration {
	// the closure stays on the stack: execWith and evalNode only call it (the 0 allocs/op gate runs through here)
	return m.execWith(func(o *Op) time.Duration {
		return o.class.OpTime(o.GFLOPs, m.InputScale, b, res)
	}, opt)
}

// ExecTimeFracCPU is ExecTime for a fractional CPU quota with no
// accelerator — the AWS-Lambda-style allocation of the Section 2
// motivation study, where CPU power is proportional to the configured
// memory size.
func (m *Model) ExecTimeFracCPU(b int, cores float64, opt ExecOptions) time.Duration {
	return m.execWith(func(o *Op) time.Duration {
		return o.class.OpTimeFracCPU(o.GFLOPs, m.InputScale, b, cores)
	}, opt)
}

func (m *Model) execWith(leaf func(*Op) time.Duration, opt ExecOptions) time.Duration {
	return opt.Jitter(m.evalNode(m.Root, leaf, opt))
}

func (m *Model) evalNode(n *Node, leaf func(*Op) time.Duration, opt ExecOptions) time.Duration {
	switch n.Kind {
	case Leaf:
		return leaf(n.Op)
	case Seq:
		var sum time.Duration
		for _, c := range n.Children {
			sum += m.evalNode(c, leaf, opt)
		}
		return sum
	case Par:
		var max, sum time.Duration
		for _, c := range n.Children {
			t := m.evalNode(c, leaf, opt)
			sum += t
			if t > max {
				max = t
			}
		}
		return max + time.Duration(opt.Contention*float64(sum-max))
	}
	panic("model: invalid node kind")
}

// MinExecTime returns the noise-free execution time on the most generous
// single-server allocation; useful for sanity checks and feasibility cuts.
func (m *Model) MinExecTime(b int) time.Duration {
	return m.ExecTime(b, perf.ServerCapacity(), ExecOptions{})
}

func (m *Model) String() string {
	return fmt.Sprintf("%s(params=%s, %.2f GFLOPs, %d ops)", m.Name, humanCount(m.Params), m.GFLOPs, len(m.ops))
}

func humanCount(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.0fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.0fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// MemoryEstimateMB estimates the loaded footprint of a model from its
// parameter count: fp32 weights + serving-framework overhead.
func MemoryEstimateMB(params int64) int {
	weights := float64(params) * 4 / (1 << 20) // fp32
	return int(math.Ceil(weights*1.6 + 120))   // graph copies + TF-Serving runtime
}
