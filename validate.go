package infless

// validate.go is the configuration contract of the facade. Zero values
// in Options resolve to the named Default* constants (visible after the
// fact through Platform.Options()); anything else that cannot be run is
// rejected up front with a FieldError naming the offending field, so a
// misconfigured experiment fails at construction, not silently halfway
// through a run with defaulted-away settings.

import (
	"fmt"
	"time"
)

// Defaults substituted for zero Options fields by NewPlatform.
const (
	// DefaultServers is the paper's 8-server testbed.
	DefaultServers = 8
	// DefaultSeed makes unseeded runs reproducible.
	DefaultSeed = 1
	// DefaultLSTHGamma is the paper's LSTH blending weight.
	DefaultLSTHGamma = 0.5
	// DefaultTelemetryWindow is the rolling window of rate and
	// SLO-attainment telemetry.
	DefaultTelemetryWindow = time.Minute
)

// FieldError reports one invalid configuration value. It names the field
// (e.g. "Options.Servers", "Traffic.RPS") so callers — and error logs —
// can say exactly what to fix.
type FieldError struct {
	Field  string
	Value  any
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("infless: invalid %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate rejects Options values that cannot configure a platform.
// Zero values are always valid — they mean "use the default".
func (o Options) Validate() error {
	switch o.System {
	case "", SystemINFless, SystemBATCH, SystemOpenFaaSPlus:
	default:
		return &FieldError{"Options.System", string(o.System),
			`unknown system (use "infless", "batch" or "openfaas+")`}
	}
	if o.System == SystemBATCH || o.System == SystemOpenFaaSPlus {
		inflessOnly := func(field string, v any) error {
			return &FieldError{field, v, "an INFless option; System " + string(o.System) + " has none"}
		}
		switch {
		case o.DisableBatching:
			return inflessOnly("Options.DisableBatching", o.DisableBatching)
		case o.DisableRS:
			return inflessOnly("Options.DisableRS", o.DisableRS)
		case o.PredictionInflate != 0:
			return inflessOnly("Options.PredictionInflate", o.PredictionInflate)
		case o.LSTHGamma != 0:
			return inflessOnly("Options.LSTHGamma", o.LSTHGamma)
		}
	}
	if o.Servers < 0 {
		return &FieldError{"Options.Servers", o.Servers,
			"cluster size must be positive (0 = default 8)"}
	}
	if o.Shards < 0 {
		return &FieldError{"Options.Shards", o.Shards,
			"shard count must be positive (0 = default 1)"}
	}
	if o.PredictionInflate < 0 {
		return &FieldError{"Options.PredictionInflate", o.PredictionInflate,
			"inflation factor must be >= 0 (0 = disabled)"}
	}
	if o.LSTHGamma < 0 || o.LSTHGamma > 1 {
		return &FieldError{"Options.LSTHGamma", o.LSTHGamma,
			"gamma must be in [0, 1] (0 = default 0.5)"}
	}
	if o.Telemetry.Window < 0 {
		return &FieldError{"Options.Telemetry.Window", o.Telemetry.Window,
			"rolling window must be positive (0 = default 1m)"}
	}
	if o.Telemetry.ResourceSampleEvery < 0 {
		return &FieldError{"Options.Telemetry.ResourceSampleEvery", o.Telemetry.ResourceSampleEvery,
			"sample period must be positive (0 = change points only)"}
	}
	return nil
}

// Validate rejects artifact declarations that cannot be seeded.
// The zero value is always valid — the legacy assumption.
func (a ArtifactSpec) Validate() error {
	if a.SizeMB < 0 {
		return &FieldError{"ArtifactSpec.SizeMB", a.SizeMB,
			"checkpoint size must be positive MB (0 = model footprint)"}
	}
	switch a.InitialTier {
	case "", "remote", "ssd", "dram":
	default:
		return &FieldError{"ArtifactSpec.InitialTier", a.InitialTier,
			`unknown tier (use "remote", "ssd" or "dram"; "" = ssd)`}
	}
	return nil
}

// withDefaults resolves zero values to the documented defaults. Only
// called after Validate, so the result is always runnable.
func (o Options) withDefaults() Options {
	if o.System == "" {
		o.System = SystemINFless
	}
	if o.Servers == 0 {
		o.Servers = DefaultServers
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.LSTHGamma == 0 && o.System == SystemINFless {
		o.LSTHGamma = DefaultLSTHGamma
	}
	if o.Telemetry.Window == 0 {
		o.Telemetry.Window = DefaultTelemetryWindow
	}
	return o
}

// Validate rejects traffic declarations that cannot generate a trace.
func (t Traffic) Validate() error {
	switch t.Pattern {
	case "", "constant", "sporadic", "periodic", "bursty":
	default:
		return &FieldError{"Traffic.Pattern", t.Pattern,
			`unknown pattern (use "constant", "sporadic", "periodic" or "bursty")`}
	}
	if t.RPS <= 0 {
		return &FieldError{"Traffic.RPS", t.RPS, "request rate must be positive"}
	}
	return nil
}

// validate checks a chain declaration at DeployChain time; the stage
// models and the SLO split are checked as the stages are built.
func (c ChainConfig) validate() error {
	if c.Name == "" {
		return &FieldError{"ChainConfig.Name", c.Name, "chain needs a name"}
	}
	if len(c.Models) < 2 {
		return &FieldError{"ChainConfig.Models", c.Models, "chain needs at least two stages"}
	}
	if c.SLO <= 0 {
		return &FieldError{"ChainConfig.SLO", c.SLO, "end-to-end SLO must be positive"}
	}
	if err := c.Traffic.Validate(); err != nil {
		return fmt.Errorf("chain %s: %w", c.Name, err)
	}
	return nil
}

// validate checks one function declaration at Deploy time.
func (cfg FunctionConfig) validate() error {
	if cfg.Name == "" {
		return &FieldError{"FunctionConfig.Name", cfg.Name, "function needs a name"}
	}
	if cfg.Model == "" {
		return &FieldError{"FunctionConfig.Model", cfg.Model,
			"function needs a model (see infless.Models())"}
	}
	if cfg.SLO <= 0 {
		return &FieldError{"FunctionConfig.SLO", cfg.SLO, "latency SLO must be positive"}
	}
	if cfg.MaxBatch < 0 {
		return &FieldError{"FunctionConfig.MaxBatch", cfg.MaxBatch,
			"batch bound must be positive (0 = model default)"}
	}
	if err := cfg.Artifact.Validate(); err != nil {
		return fmt.Errorf("function %s: %w", cfg.Name, err)
	}
	if err := cfg.Traffic.Validate(); err != nil {
		return fmt.Errorf("function %s: %w", cfg.Name, err)
	}
	return nil
}
