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
	"cmp"
	"fmt"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/scenario"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
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
	// Ablation switches (Figure 11). These and LSTHGamma are INFless
	// options: Validate rejects them for the baselines.
	DisableBatching   bool    // BB ablation: force batch size 1
	DisableRS         bool    // RS ablation: ignore Eq. 10's efficiency metric
	PredictionInflate float64 // OP ablation: 1.5 = OP1.5, 2.0 = OP2
	// LSTHGamma overrides the LSTH blending weight (default 0.5 under
	// INFless).
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
}

// Platform is a deployed serverless inference system bound to a cluster.
type Platform struct {
	opts Options
	col  *telemetry.Collector
	fns  []scenario.Function
	res  *sim.Result // set by Run
}

// NewPlatform creates a platform with the chosen control plane. Invalid
// options are rejected with a FieldError naming the offending field;
// zero fields resolve to the Default* constants (see Platform.Options).
func NewPlatform(opts Options) (*Platform, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	col := telemetry.New(telemetry.Options{
		Window:              opts.Telemetry.Window,
		ResourceSampleEvery: opts.Telemetry.ResourceSampleEvery,
	})
	return &Platform{opts: opts, col: col}, nil
}

// Deploy registers a function; call before Run.
func (p *Platform) Deploy(cfg FunctionConfig) error {
	fn, err := p.admit(cfg)
	if err == nil {
		p.fns = append(p.fns, fn)
	}
	return err
}

// admit checks that cfg can join the deployed functions and returns it
// as the run will deploy it.
func (p *Platform) admit(cfg FunctionConfig) (scenario.Function, error) {
	if p.res != nil {
		return scenario.Function{}, fmt.Errorf("infless: platform already ran")
	}
	if err := cfg.validate(); err != nil {
		return scenario.Function{}, err
	}
	if model.Get(cfg.Model) == nil {
		return scenario.Function{}, &FieldError{"FunctionConfig.Model", cfg.Model,
			"unknown model (see infless.Models())"}
	}
	for _, f := range p.fns {
		if f.Name == cfg.Name {
			return scenario.Function{}, &FieldError{"FunctionConfig.Name", cfg.Name, "a function of that name is already deployed"}
		}
	}
	t := cfg.Traffic
	return scenario.Function{Name: cfg.Name, Model: cfg.Model, SLO: cfg.SLO, MaxBatch: cfg.MaxBatch, Artifact: cfg.Artifact.spec(),
		Traffic: scenario.Traffic{Pattern: t.Pattern, RPS: t.RPS, Seed: cmp.Or(t.Seed, p.opts.Seed)}}, nil
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
	if p.res != nil {
		return nil, fmt.Errorf("infless: platform already ran")
	}
	if len(p.fns) == 0 {
		return nil, fmt.Errorf("infless: no functions deployed")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("infless: non-positive duration")
	}
	o := p.opts
	in := core.Options{PredictionInflate: o.PredictionInflate}
	in.Sched.ForceBatchOne, in.Sched.DisableRS, in.LSTH.Gamma = o.DisableBatching, o.DisableRS, o.LSTHGamma
	p.res = scenario.Run(scenario.Spec{System: string(o.System), INFless: in, Functions: p.fns,
		Cluster: cluster.Options{Servers: o.Servers, Shards: o.Shards}, Seed: o.Seed, Duration: duration,
		Collector: p.col, Trace: o.Telemetry.Trace,
		Storage: map[StorageOptions]string{{Enabled: true}: "tiered", {Enabled: true, Preload: true}: "preload"}[o.Storage]})
	return buildReport(p.res), nil
}

// Models lists the names of the built-in Table 1 model zoo.
func Models() []string {
	var out []string
	for _, m := range model.All() {
		out = append(out, m.Name)
	}
	return out
}
