// Package infless is a faithful reimplementation of INFless — "INFless: A
// Native Serverless System for Low-Latency, High-Throughput Inference"
// (Yang et al., ASPLOS 2022) — together with the baseline systems and the
// evaluation harness needed to reproduce the paper's results.
//
// The package exposes the platform through a small facade: create a
// Platform, deploy inference functions (model + latency SLO + traffic),
// and Run. The heavy lifting — combined operator profiling, non-uniform
// batching, Algorithm 1 scheduling, LSTH cold-start management, and the
// discrete-event cluster simulation standing in for the paper's
// OpenFaaS/Kubernetes testbed — lives in the internal packages.
//
// The package Example is a checked quick start; the Platform examples
// deploy the paper's Q&A robot from a template and its OSVT scenario as
// a chain.
package infless

import (
	"fmt"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/baselines"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

// System selects which control plane serves the deployed functions.
type System string

// The three systems of the paper's comparison (Table 3).
const (
	// SystemINFless is the paper's contribution: built-in non-uniform
	// batching, COP-based prediction, Eq. 10 scheduling, LSTH cold-start
	// management.
	SystemINFless System = "infless"
	// SystemBATCH is the state-of-the-art On-Top-of-Platform baseline.
	SystemBATCH System = "batch"
	// SystemOpenFaaSPlus is OpenFaaS enhanced with GPU support.
	SystemOpenFaaSPlus System = "openfaas+"
)

// Options configure a Platform.
type Options struct {
	// System selects the control plane (default SystemINFless).
	System System
	// Servers is the cluster size (default 8 — the paper's testbed).
	Servers int
	// Shards partitions the cluster's control plane into contiguous
	// ID ranges (default 1). Placement decisions are identical at any
	// shard count; sharding only changes query cost at scale.
	Shards int
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Ablation switches (INFless only; Figure 11):
	DisableBatching   bool    // BB ablation: force batch size 1
	DisableRS         bool    // RS ablation: ignore Eq. 10's efficiency metric
	PredictionInflate float64 // OP ablation: 1.5 = OP1.5, 2.0 = OP2
	// LSTHGamma overrides the LSTH blending weight (default 0.5).
	LSTHGamma float64
	// Telemetry configures the platform's observation subsystem: rolling
	// window, provisioning-series sampling (Figure 14) and the optional
	// per-request trace stream. See Platform.Telemetry for the live API.
	Telemetry TelemetryOptions
	// Storage configures multi-tier artifact loading. The zero value
	// keeps the paper's scalar cold-start model (900 ms boot + checkpoint
	// load from local SSD at 220 MB/s) with behavior bit-identical to
	// platforms built before tiering existed; set Enabled for the tiered
	// hierarchy.
	Storage StorageOptions
}

// StorageOptions switch on the multi-tier storage hierarchy behind cold
// starts, at the profiled tier parameters of internal/artifact (remote
// 60 MB/s + 100 ms, SSD 220 MB/s, DRAM 2 GB/s, device 20 GB/s; 512 GB
// SSD and 48 GB DRAM cache per server).
type StorageOptions struct {
	// Enabled turns tiering on; when false Preload is ignored and the
	// platform runs the legacy scalar formula.
	Enabled bool
	// Preload enables opportunistic pre-loading: reclaim events park
	// other functions' artifacts in the freed server's spare DRAM.
	Preload bool
}

// config lowers the facade options onto the internal artifact model;
// nil when tiering is disabled (the engine's legacy path).
func (s StorageOptions) config() *artifact.Config {
	if !s.Enabled {
		return nil
	}
	c := artifact.DefaultConfig()
	c.Preload = s.Preload
	return &c
}

// ArtifactSpec describes a function's checkpoint for tiered storage
// (ignored unless Options.Storage is enabled). The zero value means
// "the model's memory footprint, resident on every server's SSD" —
// exactly the legacy formula's assumption.
type ArtifactSpec struct {
	// SizeMB is the checkpoint size (0 = the model's memory footprint).
	SizeMB int
	// InitialTier is where the checkpoint starts: "remote", "ssd" or
	// "dram" ("" = ssd).
	InitialTier string
}

// spec lowers the facade artifact declaration onto the internal model.
// Only called after validate, so the tier name always parses.
func (a ArtifactSpec) spec() artifact.Spec {
	if a == (ArtifactSpec{}) {
		return artifact.Spec{} // sim defaults: model footprint on SSD
	}
	tier := artifact.TierSSD
	if a.InitialTier != "" {
		tier, _ = artifact.ParseTier(a.InitialTier)
	}
	return artifact.Spec{SizeMB: a.SizeMB, Initial: tier}
}

// Traffic declares the request load of one function.
type Traffic struct {
	// Pattern is "constant", "sporadic", "periodic" or "bursty"
	// (Figure 10); default "constant".
	Pattern string
	// RPS is the constant rate, or the base rate of synthetic patterns.
	RPS float64
	// Seed varies the synthetic pattern (default: platform seed).
	Seed int64
}

// FunctionConfig declares one inference function (Figure 5's template).
type FunctionConfig struct {
	Name     string
	Model    string // a model from Table 1, e.g. "ResNet-50"
	SLO      time.Duration
	MaxBatch int // 0 = model default (32)
	Traffic  Traffic
	// Artifact describes the function's checkpoint for tiered storage;
	// the zero value reproduces the legacy cold-start assumption.
	Artifact ArtifactSpec

	// chain wiring, set by DeployChain.
	forwardTo string
	noTrace   bool
	chainSLO  time.Duration
}

// Platform is a deployed serverless inference system bound to a cluster.
type Platform struct {
	opts       Options
	engineCtrl sim.Controller
	engine     *sim.Engine
	col        *telemetry.Collector
	fns        []FunctionConfig
	ran        bool
}

// NewPlatform creates a platform with the chosen control plane. Invalid
// options are rejected with a FieldError naming the offending field;
// zero fields resolve to the Default* constants (see Platform.Options).
func NewPlatform(opts Options) (*Platform, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	var ctrl sim.Controller
	switch opts.System {
	case SystemINFless:
		inflessOpts := core.Options{PredictionInflate: opts.PredictionInflate}
		inflessOpts.Sched.ForceBatchOne = opts.DisableBatching
		inflessOpts.Sched.DisableRS = opts.DisableRS
		inflessOpts.LSTH.Gamma = opts.LSTHGamma
		ctrl = core.New(inflessOpts)
	case SystemBATCH:
		ctrl = baselines.NewBatchSys()
	case SystemOpenFaaSPlus:
		ctrl = baselines.NewOpenFaaSPlus()
	}
	col := telemetry.New(telemetry.Options{
		Window:              opts.Telemetry.Window,
		ResourceSampleEvery: opts.Telemetry.ResourceSampleEvery,
	})
	return &Platform{opts: opts, engineCtrl: ctrl, col: col}, nil
}

// Deploy registers a function; call before Run.
func (p *Platform) Deploy(cfg FunctionConfig) error {
	if p.ran {
		return fmt.Errorf("infless: platform already ran")
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	if model.Get(cfg.Model) == nil {
		return &FieldError{"FunctionConfig.Model", cfg.Model,
			"unknown model (see infless.Models())"}
	}
	p.fns = append(p.fns, cfg)
	return nil
}

// DeployTemplate parses an INFless function template (Figure 5) and
// deploys every function in it with the given traffic.
func (p *Platform) DeployTemplate(src string, traffic Traffic) error {
	fns, err := core.ParseTemplate(src)
	if err != nil {
		return err
	}
	for _, t := range fns {
		if err := p.Deploy(FunctionConfig{
			Name:     t.Name,
			Model:    t.ModelName,
			SLO:      t.SLO,
			MaxBatch: t.MaxBatchSize,
			Traffic:  traffic,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the platform for the given duration and reports results.
func (p *Platform) Run(duration time.Duration) (*Report, error) {
	if p.ran {
		return nil, fmt.Errorf("infless: platform already ran")
	}
	if len(p.fns) == 0 {
		return nil, fmt.Errorf("infless: no functions deployed")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("infless: non-positive duration")
	}
	p.ran = true
	e := sim.New(p.engineCtrl, sim.Config{
		Cluster:   cluster.New(cluster.Options{Servers: p.opts.Servers, Shards: p.opts.Shards}),
		Seed:      p.opts.Seed,
		Duration:  duration,
		Collector: p.col,
		Storage:   p.opts.Storage.config(),
	})
	if p.opts.Telemetry.Trace != nil {
		e.Observe(telemetry.NewTraceWriter(p.opts.Telemetry.Trace))
	}
	for _, cfg := range p.fns {
		spec := sim.FunctionSpec{
			Name:      cfg.Name,
			Model:     model.MustGet(cfg.Model),
			SLO:       cfg.SLO,
			MaxBatch:  cfg.MaxBatch,
			ForwardTo: cfg.forwardTo,
			ChainSLO:  cfg.chainSLO,
			Artifact:  cfg.Artifact.spec(),
		}
		if !cfg.noTrace {
			tr, err := p.traceFor(cfg, duration)
			if err != nil {
				return nil, err
			}
			spec.Trace = tr
		}
		e.AddFunction(spec)
	}
	p.engine = e
	res := e.Run()
	return buildReport(res), nil
}

func (p *Platform) traceFor(cfg FunctionConfig, duration time.Duration) (*workload.Trace, error) {
	seed := cfg.Traffic.Seed
	if seed == 0 {
		seed = p.opts.Seed
	}
	switch cfg.Traffic.Pattern {
	case "", "constant":
		return workload.Constant(cfg.Traffic.RPS, duration, time.Minute), nil
	default:
		days := int(duration/(24*time.Hour)) + 1
		return workload.ByName(cfg.Traffic.Pattern, workload.Options{
			Seed:    seed,
			Days:    days,
			BaseRPS: cfg.Traffic.RPS,
		})
	}
}

// Models lists the names of the built-in Table 1 model zoo.
func Models() []string {
	var out []string
	for _, m := range model.All() {
		out = append(out, m.Name)
	}
	return out
}
