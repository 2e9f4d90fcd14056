package coldstart

// tier.go is the tier-aware half of the cold-start API (see the package
// comment): TierPolicy generalizes Policy from "keep the instance or drop
// it" to "where in the storage hierarchy does the idle function's
// artifact go, and for how long".

import (
	"time"

	"github.com/tanklab/infless/internal/artifact"
)

// Decision is one tier-aware keep-alive ruling.
//
// The instance lifecycle it describes: after an invocation the instance
// is reclaimed, pre-warmed again Prewarm later, and kept fully warm for
// KeepAlive. When the keep-alive window closes the artifact parks at
// IdleTier for IdleFor — IdleTier TierDRAM means the container stays
// alive with its weights paged to host memory (a "paused" container:
// resuming needs no boot, only the DRAM-to-device copy) — and finally
// falls to Floor, from which a fresh start pays the full boot + load.
type Decision struct {
	Prewarm   time.Duration
	KeepAlive time.Duration
	// IdleTier is where the artifact parks once keep-alive expires.
	// TierSSD with IdleFor 0 is exactly the legacy binary model.
	IdleTier artifact.Tier
	// IdleFor is how long the artifact stays at IdleTier before
	// dropping to Floor. Ignored when IdleTier is not above Floor.
	IdleFor time.Duration
	// Floor is the artifact's final resting tier (TierSSD normally;
	// TierRemote for functions the policy considers dead).
	Floor artifact.Tier
}

// TierPolicy is the tier-aware cold-start interface. It mirrors Policy
// (same Name/RecordIdle contract, same single-owner concurrency rule)
// but answers with a full Decision instead of the two windows.
type TierPolicy interface {
	Name() string
	RecordIdle(idle time.Duration, now time.Duration)
	Decide(now time.Duration) Decision
}

// legacyTier adapts a Policy to TierPolicy with the legacy shape: the
// windows come from Windows, the artifact rests on local SSD (the
// scalar formula's assumption) with no pause stage.
type legacyTier struct{ p Policy }

func (l legacyTier) Name() string                       { return l.p.Name() }
func (l legacyTier) RecordIdle(idle, now time.Duration) { l.p.RecordIdle(idle, now) }
func (l legacyTier) Decide(now time.Duration) Decision {
	pw, ka := l.p.Windows(now)
	return Decision{Prewarm: pw, KeepAlive: ka, IdleTier: artifact.TierSSD, Floor: artifact.TierSSD}
}

// Tiered adapts a Policy to a TierPolicy. A policy with native tier
// support (LSTH) is returned as-is; anything else is wrapped with the
// legacy SSD-resting shape, which reproduces Evaluate's cold/warm/waste
// accounting exactly (TestLegacyTierMatchesEvaluate).
func Tiered(p Policy) TierPolicy {
	if tp, ok := p.(TierPolicy); ok {
		return tp
	}
	return legacyTier{p: p}
}

// LegacyTier wraps a Policy with the legacy shape unconditionally, even
// when the policy has native tier support. Benches use it to run the
// same LSTH histograms with and without tiering.
func LegacyTier(p Policy) TierPolicy { return legacyTier{p: p} }

// Decide implements TierPolicy natively for LSTH: the same blended
// histograms that set the windows also choose the demotion tier. With
// enough signal, the instance is held fully warm only to the blended
// pausePct percentile of the idle distribution (the median) instead of
// the tail; the artifact then parks in host DRAM — a paused container
// that resumes without the 900 ms boot — until pauseFactor times the
// blended tail, and finally drops to SSD. The DRAM pause covers the
// distribution's tail at a fraction of a warm instance's resident cost,
// which is what lets the tiered policy cut cold starts and wasted
// resident time at the same time (fig16t). Without enough samples the
// decision degrades to the legacy shape on the fallback keep-alive,
// exactly like Windows.
func (l *LSTH) Decide(now time.Duration) Decision {
	pw, keep := l.Windows(now)
	d := Decision{Prewarm: pw, KeepAlive: keep, IdleTier: artifact.TierSSD, Floor: artifact.TierSSD}
	if l.long.hist.Total() < minSamples {
		return d
	}
	lMed := l.long.hist.Percentile(pausePct)
	sMed := l.short.hist.Percentile(pausePct)
	if l.short.hist.Total() < minSamples {
		sMed = lMed
	}
	med := time.Duration(l.gamma*float64(lMed) + (1-l.gamma)*float64(sMed))
	if med < keep {
		d.KeepAlive = med
		d.IdleTier = artifact.TierDRAM
		pause := time.Duration(pauseFactor*float64(keep)) - med
		if pause < 0 {
			pause = 0
		}
		d.IdleFor = pause
	}
	return d
}
