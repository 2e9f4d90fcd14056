package loadgen

// saturate.go is the max-sustained-RPS search: geometric open-loop
// ramp-up until the endpoint stops keeping up, then a record of every
// step, so the caller sees the whole curve. A step is
// "sustained" when the achieved goodput reaches minAchievedFrac of the
// target AND the shed+failure fraction stays under maxLossRate — i.e.
// the server answered (almost) everything that was offered, at the rate
// it was offered.

import (
	"context"
	"fmt"
	"time"

	"github.com/tanklab/infless/internal/workload"
)

// SaturationConfig describes a max-RPS search.
type SaturationConfig struct {
	// URL is the invocation endpoint.
	URL string
	// StartRPS is the first step's offered rate (default 100).
	StartRPS float64
	// StepDuration is each step's length (default 3s).
	StepDuration time.Duration
	// Connections bounds in-flight requests per step (default 256).
	Connections int
	// SLO classifies latencies (0 disables).
	SLO time.Duration
	// Seed drives the per-step arrival processes.
	Seed int64
}

// The shape of the ramp and the verdict on a step.
const (
	growth          = 2    // rate multiplier between steps
	maxSteps        = 16   // bound on the ramp
	minAchievedFrac = 0.9  // goodput/target floor for a sustained step
	maxLossRate     = 0.01 // (shed+failed)/sent ceiling for a sustained step
)

// SaturationStep is one rung of the ramp.
type SaturationStep struct {
	TargetRPS float64 `json:"targetRps"`
	Stats     Stats   `json:"stats"`
	Sustained bool    `json:"sustained"`
}

// SaturationResult is the search outcome.
type SaturationResult struct {
	// MaxSustainedRPS is the highest achieved goodput among sustained
	// steps (0 when even the first step collapsed).
	MaxSustainedRPS float64          `json:"maxSustainedRps"`
	Steps           []SaturationStep `json:"steps"`
}

func (c *SaturationConfig) defaults() {
	if c.StartRPS <= 0 {
		c.StartRPS = 100
	}
	if c.StepDuration <= 0 {
		c.StepDuration = 3 * time.Second
	}
	if c.Connections <= 0 {
		c.Connections = 256
	}
}

// Saturate ramps offered load until the endpoint stops sustaining it and
// reports the curve. The search stops at the first unsustained step (the
// open-loop ramp is monotone: more offered load never helps) or when ctx
// is canceled.
func Saturate(ctx context.Context, cfg SaturationConfig) (SaturationResult, error) {
	if cfg.URL == "" {
		return SaturationResult{}, fmt.Errorf("loadgen: URL required")
	}
	cfg.defaults()
	var res SaturationResult
	rate := cfg.StartRPS
	for i := 0; i < maxSteps; i++ {
		stats, err := Run(ctx, Config{
			URL:         cfg.URL,
			Mode:        ModeOpen,
			Trace:       workload.Constant(rate, cfg.StepDuration, cfg.StepDuration),
			Duration:    cfg.StepDuration,
			Connections: cfg.Connections,
			SLO:         cfg.SLO,
			Seed:        cfg.Seed + int64(i),
		})
		if err != nil {
			return res, err
		}
		step := SaturationStep{TargetRPS: rate, Stats: stats}
		loss := 0.0
		if stats.Sent > 0 {
			loss = float64(stats.Shed+stats.Failed) / float64(stats.Sent)
		}
		step.Sustained = stats.RPS >= minAchievedFrac*rate && loss <= maxLossRate
		res.Steps = append(res.Steps, step)
		if step.Sustained && stats.RPS > res.MaxSustainedRPS {
			res.MaxSustainedRPS = stats.RPS
		}
		if !step.Sustained {
			break
		}
		rate *= growth
	}
	return res, nil
}
