// Package artifact models the storage hierarchy that model checkpoints
// ("artifacts") move through on their way into a serving instance:
//
//	remote registry -> local SSD -> host DRAM -> device memory
//
// The INFless paper treats cold start as a single scalar delay
// (container boot + checkpoint read from local SSD); ServerlessLLM
// showed that modeling the real hierarchy — per-tier bandwidth and
// latency, an explicit per-server artifact cache, and placement that
// scores candidate servers by estimated startup time — cuts cold
// latency by an order of magnitude, and InstaInfer showed opportunistic
// pre-loading into warm-but-idle instances removes most remaining cold
// paths.
//
// This package is the single source of truth for that model: the Tier
// enum, the per-tier bandwidth/latency table (Hierarchy), the startup
// estimator (Startup/Breakdown), and the per-server LRU artifact cache
// (Cache). The legacy scalar formula lives here too (Legacy): the
// engine prices every cold start with it when tiered storage is off, so
// the default numbers — 900 ms container boot plus a checkpoint read at
// 220 MB/s from SSD — are defined exactly once.
//
// The package is deliberately stdlib-only and wall-clock free (it is in
// the registry test's wall-clock scope): every other layer — cluster,
// scheduler, sim, coldstart, gateway, the facade — imports it without
// cycles, and identical call sequences always produce identical cache
// states and estimates.
package artifact

import (
	"fmt"
	"time"
)

// Tier identifies one level of the storage hierarchy, ordered slowest
// (furthest from the accelerator) to fastest. TierRemote doubles as the
// "not cached on this server" state: an artifact that misses the local
// cache must be pulled from the remote registry.
type Tier uint8

const (
	// TierRemote is the shared model registry reached over the
	// network. Artifacts always exist there; it is the miss tier.
	TierRemote Tier = iota
	// TierSSD is the server-local SSD. The paper's scalar formula
	// assumes every checkpoint loads from here at 220 MB/s.
	TierSSD
	// TierDRAM is host memory: a checkpoint held here loads onto the
	// device an order of magnitude faster than from SSD.
	TierDRAM
	// TierDevice is accelerator memory: the checkpoint is already
	// where it needs to be and only a trivial handoff remains.
	TierDevice

	// NumTiers is the number of hierarchy levels; use it to size
	// per-tier tables.
	NumTiers = 4
)

var tierNames = [NumTiers]string{"remote", "ssd", "dram", "device"}

// String returns the lowercase tier name ("remote", "ssd", "dram",
// "device"); these names are stable and used as Prometheus label
// values and JSON keys.
func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// ParseTier is the inverse of Tier.String.
func ParseTier(s string) (Tier, error) {
	for i, n := range tierNames {
		if s == n {
			return Tier(i), nil
		}
	}
	return TierRemote, fmt.Errorf("unknown artifact tier %q (want remote|ssd|dram|device)", s)
}

// TierSpec describes one hierarchy level: sustained read bandwidth in
// MB/s and a fixed per-access latency (connection setup, seek, …) paid
// once per load regardless of size.
type TierSpec struct {
	BandwidthMBps float64
	Latency       time.Duration
}

// Default tier parameters. DefaultBoot and the SSD bandwidth reproduce
// the scalar formula the paper's testbed measured (900 ms container
// boot + checkpoint read at 220 MB/s); the other tiers follow the
// ServerlessLLM measurements in spirit: a slow, latency-bound registry
// link, DRAM roughly 10x SSD, device memory another 10x above that.
const (
	DefaultBoot                = 900 * time.Millisecond
	DefaultRemoteMBps          = 60.0
	DefaultRemoteLatency       = 100 * time.Millisecond
	DefaultSSDMBps             = 220.0
	DefaultDRAMMBps            = 2000.0
	DefaultDeviceMBps          = 20000.0
	DefaultSSDCacheMB    int64 = 512 << 10 // 512 GB local SSD cache per server
	DefaultDRAMCacheMB   int64 = 48 << 10  // 48 GB host-DRAM cache per server
)

// Hierarchy is the per-tier bandwidth/latency model plus the container
// boot time. The zero value is not useful; start from Default().
type Hierarchy struct {
	Boot  time.Duration
	Tiers [NumTiers]TierSpec
}

// Default returns the hierarchy whose SSD path reproduces the legacy
// scalar formula exactly (zero SSD latency, 220 MB/s, 900 ms boot).
func Default() Hierarchy {
	return Hierarchy{
		Boot: DefaultBoot,
		Tiers: [NumTiers]TierSpec{
			TierRemote: {BandwidthMBps: DefaultRemoteMBps, Latency: DefaultRemoteLatency},
			TierSSD:    {BandwidthMBps: DefaultSSDMBps},
			TierDRAM:   {BandwidthMBps: DefaultDRAMMBps},
			TierDevice: {BandwidthMBps: DefaultDeviceMBps},
		},
	}
}

// LoadTime is the time to read sizeMB from the given tier: the tier's
// fixed latency plus size over bandwidth. A non-positive bandwidth
// contributes only the latency.
func (h Hierarchy) LoadTime(sizeMB int, from Tier) time.Duration {
	sp := h.Tiers[from]
	if sp.BandwidthMBps <= 0 {
		return sp.Latency
	}
	return sp.Latency + time.Duration(float64(sizeMB)/sp.BandwidthMBps*float64(time.Second))
}

// PromoteTime is the cost of copying sizeMB into the given tier (the
// write half of a promotion); no per-access latency is charged.
func (h Hierarchy) PromoteTime(sizeMB int, to Tier) time.Duration {
	sp := h.Tiers[to]
	if sp.BandwidthMBps <= 0 {
		return 0
	}
	return time.Duration(float64(sizeMB) / sp.BandwidthMBps * float64(time.Second))
}

// Breakdown decomposes one instance startup into its phases: container
// boot, checkpoint load from the source tier, and (optionally) the
// promotion write that moves the artifact up the hierarchy as a side
// effect of the load.
type Breakdown struct {
	From    Tier
	Boot    time.Duration
	Load    time.Duration
	Promote time.Duration
}

// Total is the end-to-end startup delay.
func (b Breakdown) Total() time.Duration { return b.Boot + b.Load + b.Promote }

// Startup estimates a cold start for a sizeMB checkpoint resident at
// the given tier: container boot plus the tier load. The Promote
// component is zero; callers that promote as part of the launch add it
// via PromoteTime.
func (h Hierarchy) Startup(sizeMB int, from Tier) Breakdown {
	return Breakdown{From: from, Boot: h.Boot, Load: h.LoadTime(sizeMB, from)}
}

// Legacy is the paper's scalar cold-start formula — 900 ms container
// boot plus a checkpoint read from local SSD at 220 MB/s — expressed
// through the default hierarchy: container/runtime bring-up plus loading
// the model weights, which often exceeds an inference function's
// execution time. The engine prices a cold start with it whenever
// multi-tier artifact loading is disabled; the arithmetic is
// bit-identical to the original inline constant formula.
func Legacy(sizeMB int) time.Duration {
	h := Default()
	return h.Boot + h.LoadTime(sizeMB, TierSSD)
}

// Spec describes one function's artifact: checkpoint size and the tier
// it starts at on every server before the first request. A zero SizeMB
// means "use the model's memory footprint"; the zero Initial tier is
// TierRemote, but facades default it to TierSSD to match the legacy
// assumption that checkpoints are already on local disk.
type Spec struct {
	SizeMB  int
	Initial Tier
}

// Config is the complete storage-model configuration threaded from the
// facade down to the engines. The zero value means "tiering disabled":
// every consumer must fall back to the legacy scalar path and produce
// bit-identical decisions and timings.
type Config struct {
	// Enabled turns the tiered model on. When false the rest of the
	// struct is ignored.
	Enabled bool
	// Hierarchy is the per-tier bandwidth/latency model.
	Hierarchy Hierarchy
	// CacheMB is the per-server artifact-cache capacity per tier;
	// TierRemote's entry is ignored (the registry is unbounded).
	CacheMB [NumTiers]int64
	// Preload enables opportunistic pre-loading: when capacity frees
	// up on a server, absent artifacts are pulled into its DRAM cache
	// so future cold starts find them close.
	Preload bool
}

// Active reports whether tiered loading is enabled.
func (c *Config) Active() bool { return c != nil && c.Enabled }

// DefaultConfig returns the tiered model with default hierarchy and
// cache capacities, pre-loading off.
func DefaultConfig() Config {
	var caps [NumTiers]int64
	caps[TierSSD] = DefaultSSDCacheMB
	caps[TierDRAM] = DefaultDRAMCacheMB
	return Config{Enabled: true, Hierarchy: Default(), CacheMB: caps}
}

// Profile maps a CLI profile name to a Config: "off" (or "") is the
// legacy scalar model, "tiered" enables multi-tier loading, "preload"
// additionally enables opportunistic pre-loading.
func Profile(name string) (Config, error) {
	switch name {
	case "", "off":
		return Config{}, nil
	case "tiered":
		return DefaultConfig(), nil
	case "preload":
		c := DefaultConfig()
		c.Preload = true
		return c, nil
	}
	return Config{}, fmt.Errorf("unknown storage profile %q (want off|tiered|preload)", name)
}
