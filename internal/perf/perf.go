// Package perf models the hardware of the INFless evaluation testbed
// (Table 2 of the paper) and provides the ground-truth operator cost
// model used by the discrete-event simulator.
//
// The paper's testbed is 8 dual-socket Xeon Silver-4215 servers with two
// Nvidia RTX 2080Ti GPUs each. GPUs are space-shared with CUDA MPS in
// units of 10% of the streaming multiprocessors, so one physical GPU
// contributes 10 allocatable GPU units.
//
// All control-plane decisions in INFless consume only execution-time
// profiles t = f(op, p, b, c, g); the cost model below supplies those
// times with a realistic shape:
//
//	t = launch(device) + serial + parallel work / aggregate rate
//
// where the aggregate rate sums CPU and GPU contributions weighted by the
// operator's architectural efficiency, and an Amdahl-style serial fraction
// caps the benefit of wide allocations. Batch amortization emerges
// naturally because the launch overhead is paid once per operator
// invocation regardless of batch size.
package perf

import (
	"fmt"
	"math"
	"time"
)

// Hardware constants calibrated to Table 2 and public spec sheets.
const (
	// CPUCoreGFLOPS is the effective per-physical-core throughput a tuned
	// inference kernel attains on a Xeon Silver-4215 (2.5 GHz, AVX-512;
	// dense GEMM reaches ~40 GF/s/core peak, typical inference ~half).
	CPUCoreGFLOPS = 22.0

	// GPUUnitGFLOPS is the effective throughput of one MPS unit (10% of
	// an RTX 2080Ti's 68 SMs; 13.4 TFLOPS fp32 peak, ~30% attainable for
	// mixed inference workloads => ~400 GF/s per unit).
	GPUUnitGFLOPS = 400.0

	// ServerCPUCores is the physical core count per server (2 sockets x 8).
	ServerCPUCores = 16

	// ServerGPUs and GPUUnitsPerGPU: two 2080Ti per server, 10 MPS units each.
	ServerGPUs     = 2
	GPUUnitsPerGPU = 10
	ServerGPUUnits = ServerGPUs * GPUUnitsPerGPU

	// ServerMemoryMB is main memory per server (128 GB).
	ServerMemoryMB = 128 * 1024
)

// Beta is the paper's CPU<->GPU conversion factor beta, derived by
// comparing FLOPS of the two resource types (Section 3.4): one CPU core
// expressed in GPU-unit equivalents.
const Beta = CPUCoreGFLOPS / GPUUnitGFLOPS

// Resources is an allocation of CPU cores and GPU units (10% SM slices).
type Resources struct {
	CPU int // physical cores
	GPU int // MPS units of 10% of one GPU's SMs
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, GPU: r.GPU + o.GPU}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPU: r.CPU - o.CPU, GPU: r.GPU - o.GPU}
}

// Fits reports whether o fits within r.
func (r Resources) Fits(o Resources) bool {
	return o.CPU <= r.CPU && o.GPU <= r.GPU
}

// IsZero reports whether the allocation is empty.
func (r Resources) IsZero() bool { return r.CPU == 0 && r.GPU == 0 }

// NonNegative reports whether both dimensions are >= 0.
func (r Resources) NonNegative() bool { return r.CPU >= 0 && r.GPU >= 0 }

// Weighted returns the scalar beta*CPU + GPU used throughout the paper's
// objective (Eq. 2) and the resource-efficiency metric (Eq. 10).
func (r Resources) Weighted() float64 {
	return Beta*float64(r.CPU) + float64(r.GPU)
}

func (r Resources) String() string {
	return fmt.Sprintf("{cpu:%d gpu:%d}", r.CPU, r.GPU)
}

// ServerCapacity returns the full resource capacity of one testbed server.
func ServerCapacity() Resources {
	return Resources{CPU: ServerCPUCores, GPU: ServerGPUUnits}
}

// OpClass describes the performance character of one operator type.
// Instances of a class differ only in the amount of work (GFLOPs), which
// is carried per-operator in the model DAG.
type OpClass struct {
	Name string

	// CPUEff / GPUEff are the fractions of ideal FLOPS attainable on each
	// device. Dense GEMM-like ops run near peak on GPU; memory-bound ops
	// (concat, elementwise) attain far less on both.
	CPUEff float64
	GPUEff float64

	// LaunchCPU / LaunchGPU are fixed per-invocation overheads (framework
	// dispatch on CPU, kernel launch + sync on GPU). GPU launches are more
	// expensive, which is why tiny models prefer CPUs.
	LaunchCPU time.Duration
	LaunchGPU time.Duration

	// ParallelFrac is the Amdahl parallel fraction: the share of the
	// operator's work that scales with additional cores/SMs. The rest runs
	// at single-unit speed regardless of allocation width.
	ParallelFrac float64

	// BatchGain captures how much batching improves per-FLOP efficiency
	// (matrix-matrix vs matrix-vector arithmetic intensity, better cache
	// and SM occupancy): the effective compute rate is multiplied by
	// 1 + BatchGain*(1 - 1/sqrt(b)). GEMM-like operators gain most;
	// memory-bound elementwise ops barely gain.
	BatchGain float64
}

// batchMult returns the rate multiplier for batch size b.
func (c *OpClass) batchMult(b int) float64 {
	if b <= 1 || c.BatchGain <= 0 {
		return 1
	}
	return 1 + c.BatchGain*(1-1/math.Sqrt(float64(b)))
}

// Catalog is the operator-class database. Models in internal/model refer
// to classes by name; unknown names panic at model-construction time so
// typos are caught immediately.
var Catalog = map[string]*OpClass{
	"MatMul":            {Name: "MatMul", CPUEff: 0.80, GPUEff: 0.85, LaunchCPU: 18 * time.Microsecond, LaunchGPU: 42 * time.Microsecond, ParallelFrac: 0.97},
	"FusedMatMul":       {Name: "FusedMatMul", CPUEff: 0.85, GPUEff: 0.90, LaunchCPU: 16 * time.Microsecond, LaunchGPU: 38 * time.Microsecond, ParallelFrac: 0.97},
	"Conv2D":            {Name: "Conv2D", CPUEff: 0.70, GPUEff: 0.92, LaunchCPU: 22 * time.Microsecond, LaunchGPU: 48 * time.Microsecond, ParallelFrac: 0.98},
	"DepthwiseConv2D":   {Name: "DepthwiseConv2D", CPUEff: 0.45, GPUEff: 0.55, LaunchCPU: 20 * time.Microsecond, LaunchGPU: 46 * time.Microsecond, ParallelFrac: 0.95},
	"BiasAdd":           {Name: "BiasAdd", CPUEff: 0.20, GPUEff: 0.25, LaunchCPU: 6 * time.Microsecond, LaunchGPU: 20 * time.Microsecond, ParallelFrac: 0.90},
	"Relu":              {Name: "Relu", CPUEff: 0.22, GPUEff: 0.30, LaunchCPU: 5 * time.Microsecond, LaunchGPU: 18 * time.Microsecond, ParallelFrac: 0.92},
	"Sigmoid":           {Name: "Sigmoid", CPUEff: 0.15, GPUEff: 0.22, LaunchCPU: 6 * time.Microsecond, LaunchGPU: 18 * time.Microsecond, ParallelFrac: 0.92},
	"Tanh":              {Name: "Tanh", CPUEff: 0.15, GPUEff: 0.22, LaunchCPU: 6 * time.Microsecond, LaunchGPU: 18 * time.Microsecond, ParallelFrac: 0.92},
	"Softmax":           {Name: "Softmax", CPUEff: 0.18, GPUEff: 0.24, LaunchCPU: 8 * time.Microsecond, LaunchGPU: 22 * time.Microsecond, ParallelFrac: 0.85},
	"LayerNorm":         {Name: "LayerNorm", CPUEff: 0.18, GPUEff: 0.24, LaunchCPU: 9 * time.Microsecond, LaunchGPU: 24 * time.Microsecond, ParallelFrac: 0.85},
	"BatchNorm":         {Name: "BatchNorm", CPUEff: 0.20, GPUEff: 0.26, LaunchCPU: 8 * time.Microsecond, LaunchGPU: 22 * time.Microsecond, ParallelFrac: 0.88},
	"MaxPool":           {Name: "MaxPool", CPUEff: 0.25, GPUEff: 0.35, LaunchCPU: 8 * time.Microsecond, LaunchGPU: 22 * time.Microsecond, ParallelFrac: 0.92},
	"AvgPool":           {Name: "AvgPool", CPUEff: 0.25, GPUEff: 0.35, LaunchCPU: 8 * time.Microsecond, LaunchGPU: 22 * time.Microsecond, ParallelFrac: 0.92},
	"ConcatV2":          {Name: "ConcatV2", CPUEff: 0.12, GPUEff: 0.15, LaunchCPU: 7 * time.Microsecond, LaunchGPU: 20 * time.Microsecond, ParallelFrac: 0.70},
	"Mul":               {Name: "Mul", CPUEff: 0.18, GPUEff: 0.22, LaunchCPU: 5 * time.Microsecond, LaunchGPU: 18 * time.Microsecond, ParallelFrac: 0.90},
	"Add":               {Name: "Add", CPUEff: 0.18, GPUEff: 0.22, LaunchCPU: 5 * time.Microsecond, LaunchGPU: 18 * time.Microsecond, ParallelFrac: 0.90},
	"Sum":               {Name: "Sum", CPUEff: 0.16, GPUEff: 0.20, LaunchCPU: 6 * time.Microsecond, LaunchGPU: 19 * time.Microsecond, ParallelFrac: 0.75},
	"Embedding":         {Name: "Embedding", CPUEff: 0.10, GPUEff: 0.12, LaunchCPU: 10 * time.Microsecond, LaunchGPU: 26 * time.Microsecond, ParallelFrac: 0.80},
	"Gather":            {Name: "Gather", CPUEff: 0.10, GPUEff: 0.12, LaunchCPU: 8 * time.Microsecond, LaunchGPU: 24 * time.Microsecond, ParallelFrac: 0.75},
	"Transpose":         {Name: "Transpose", CPUEff: 0.14, GPUEff: 0.20, LaunchCPU: 6 * time.Microsecond, LaunchGPU: 20 * time.Microsecond, ParallelFrac: 0.88},
	"Reshape":           {Name: "Reshape", CPUEff: 0.50, GPUEff: 0.50, LaunchCPU: 2 * time.Microsecond, LaunchGPU: 8 * time.Microsecond, ParallelFrac: 0.50},
	"Slice":             {Name: "Slice", CPUEff: 0.20, GPUEff: 0.22, LaunchCPU: 4 * time.Microsecond, LaunchGPU: 16 * time.Microsecond, ParallelFrac: 0.80},
	"Split":             {Name: "Split", CPUEff: 0.20, GPUEff: 0.22, LaunchCPU: 4 * time.Microsecond, LaunchGPU: 16 * time.Microsecond, ParallelFrac: 0.80},
	"Pad":               {Name: "Pad", CPUEff: 0.18, GPUEff: 0.22, LaunchCPU: 5 * time.Microsecond, LaunchGPU: 18 * time.Microsecond, ParallelFrac: 0.85},
	"LRN":               {Name: "LRN", CPUEff: 0.16, GPUEff: 0.22, LaunchCPU: 8 * time.Microsecond, LaunchGPU: 22 * time.Microsecond, ParallelFrac: 0.85},
	"GRUCell":           {Name: "GRUCell", CPUEff: 0.55, GPUEff: 0.60, LaunchCPU: 14 * time.Microsecond, LaunchGPU: 34 * time.Microsecond, ParallelFrac: 0.90},
	"LSTMCell":          {Name: "LSTMCell", CPUEff: 0.55, GPUEff: 0.60, LaunchCPU: 14 * time.Microsecond, LaunchGPU: 34 * time.Microsecond, ParallelFrac: 0.90},
	"Conv1D":            {Name: "Conv1D", CPUEff: 0.60, GPUEff: 0.80, LaunchCPU: 14 * time.Microsecond, LaunchGPU: 36 * time.Microsecond, ParallelFrac: 0.95},
	"GEMMBatched":       {Name: "GEMMBatched", CPUEff: 0.78, GPUEff: 0.88, LaunchCPU: 18 * time.Microsecond, LaunchGPU: 40 * time.Microsecond, ParallelFrac: 0.97},
	"Attention":         {Name: "Attention", CPUEff: 0.65, GPUEff: 0.82, LaunchCPU: 20 * time.Microsecond, LaunchGPU: 44 * time.Microsecond, ParallelFrac: 0.95},
	"GELU":              {Name: "GELU", CPUEff: 0.16, GPUEff: 0.22, LaunchCPU: 6 * time.Microsecond, LaunchGPU: 18 * time.Microsecond, ParallelFrac: 0.92},
	"TopK":              {Name: "TopK", CPUEff: 0.12, GPUEff: 0.10, LaunchCPU: 10 * time.Microsecond, LaunchGPU: 30 * time.Microsecond, ParallelFrac: 0.60},
	"NonMaxSuppression": {Name: "NonMaxSuppression", CPUEff: 0.10, GPUEff: 0.08, LaunchCPU: 14 * time.Microsecond, LaunchGPU: 36 * time.Microsecond, ParallelFrac: 0.40},
	"Identity":          {Name: "Identity", CPUEff: 0.50, GPUEff: 0.50, LaunchCPU: 1 * time.Microsecond, LaunchGPU: 4 * time.Microsecond, ParallelFrac: 0.50},
	"CTCDecode":         {Name: "CTCDecode", CPUEff: 0.15, GPUEff: 0.10, LaunchCPU: 12 * time.Microsecond, LaunchGPU: 34 * time.Microsecond, ParallelFrac: 0.50},
	"Mean":              {Name: "Mean", CPUEff: 0.16, GPUEff: 0.20, LaunchCPU: 6 * time.Microsecond, LaunchGPU: 19 * time.Microsecond, ParallelFrac: 0.75},
}

func init() {
	// Batch-efficiency gains by operator category: compute-dense kernels
	// turn batching into matrix-matrix arithmetic (large gains);
	// memory-bound ops gain little.
	gemmLike := map[string]bool{
		"MatMul": true, "FusedMatMul": true, "GEMMBatched": true,
		"Attention": true, "Conv2D": true, "Conv1D": true,
		"LSTMCell": true, "GRUCell": true,
	}
	for name, c := range Catalog {
		switch {
		case gemmLike[name]:
			c.BatchGain = 1.5
		case name == "DepthwiseConv2D":
			c.BatchGain = 0.8
		default:
			c.BatchGain = 0.25
		}
	}
}

// Class returns the operator class for name, panicking on unknown names.
// Models are static data, so an unknown class is a programming error.
func Class(name string) *OpClass {
	c, ok := Catalog[name]
	if !ok {
		panic("perf: unknown operator class " + name)
	}
	return c
}

// OpTime returns the deterministic (noise-free) execution time of one
// operator invocation processing a batch of b inputs, each of input scale
// p (a dimensionless multiplier on the operator's nominal GFLOPs), on the
// given resource allocation.
//
// gflops is the work for a single input at p = 1.
func (c *OpClass) OpTime(gflops, p float64, b int, res Resources) time.Duration {
	if b < 1 {
		b = 1
	}
	if p <= 0 {
		p = 1
	}
	if res.CPU <= 0 && res.GPU <= 0 {
		// No compute allocated: treat as a single borrowed core so callers
		// probing degenerate configs get a finite (terrible) answer.
		res = Resources{CPU: 1}
	}
	work := gflops * p * float64(b) // total GFLOPs for the batch
	mult := c.batchMult(b)

	rateCPU := float64(res.CPU) * CPUCoreGFLOPS * c.CPUEff
	rateGPU := float64(res.GPU) * GPUUnitGFLOPS * c.GPUEff
	rate := (rateCPU + rateGPU) * mult

	// The serial fraction runs at single-unit speed of the fastest device
	// present in the allocation.
	unit := CPUCoreGFLOPS * c.CPUEff * mult
	if res.GPU > 0 {
		unit = GPUUnitGFLOPS * c.GPUEff * mult
	}

	serial := (1 - c.ParallelFrac) * work / unit // seconds
	parallel := c.ParallelFrac * work / rate     // seconds

	launch := c.LaunchCPU
	if res.GPU > 0 {
		launch = c.LaunchGPU
		if res.CPU > 0 {
			// Hybrid execution pays both dispatch paths' coordination cost.
			launch = c.LaunchGPU + c.LaunchCPU/2
		}
	}

	secs := serial + parallel
	return launch + time.Duration(secs*float64(time.Second))
}

// OpTimeFracCPU is OpTime for a fractional CPU-only quota, modelling the
// Lambda-style proportional CPU-memory allocation where a function may
// hold, say, 0.3 vCPUs. No accelerator is available.
func (c *OpClass) OpTimeFracCPU(gflops, p float64, b int, cores float64) time.Duration {
	if b < 1 {
		b = 1
	}
	if p <= 0 {
		p = 1
	}
	if cores <= 0.05 {
		cores = 0.05
	}
	work := gflops * p * float64(b)
	mult := c.batchMult(b)
	rate := cores * CPUCoreGFLOPS * c.CPUEff * mult
	// The serial fraction cannot run faster than one full core — but with
	// a sub-core quota it runs at the quota's speed.
	unitCores := cores
	if unitCores > 1 {
		unitCores = 1
	}
	unit := unitCores * CPUCoreGFLOPS * c.CPUEff * mult
	serial := (1 - c.ParallelFrac) * work / unit
	parallel := c.ParallelFrac * work / rate
	// Dispatch overhead inflates under tiny quotas (the runtime itself is
	// CPU-throttled).
	launch := c.LaunchCPU
	if cores < 1 {
		launch = time.Duration(float64(launch) / cores)
	}
	return launch + time.Duration((serial+parallel)*float64(time.Second))
}

// LambdaMemToVCPU converts an AWS-Lambda-style memory setting to a vCPU
// quota, following Lambda's proportional CPU-memory allocation policy
// (1 vCPU at 1769 MB, linear, capped at 6 vCPUs at ~10 GB; the paper's
// motivation study uses 128 MB - 3072 MB).
func LambdaMemToVCPU(memMB int) float64 {
	v := float64(memMB) / 1769.0
	return math.Min(v, 6.0)
}
