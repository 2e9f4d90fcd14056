package coldstart

// tier.go is the tier-aware half of the Policy contract (see the
// package comment): Decide generalizes Windows from "keep the instance
// or drop it" to "where in the storage hierarchy does the idle
// function's artifact go, and for how long".

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
// rests on local SSD, from which a fresh start pays the full boot + load.
type Decision struct {
	Prewarm   time.Duration
	KeepAlive time.Duration
	// IdleTier is where the artifact parks once keep-alive expires.
	// TierSSD with IdleFor 0 is exactly the legacy binary model.
	IdleTier artifact.Tier
	// IdleFor is how long the artifact stays at IdleTier before
	// dropping to SSD.
	IdleFor time.Duration
}

// legacyDecision is the legacy shape of a policy's windows: no pause
// stage, the artifact resting on local SSD (the scalar formula's
// assumption).
func legacyDecision(prewarm, keepalive time.Duration) Decision {
	return Decision{Prewarm: prewarm, KeepAlive: keepalive, IdleTier: artifact.TierSSD}
}

// Decide answers in the legacy shape of Windows.
func (f Fixed) Decide(now time.Duration) Decision { return legacyDecision(f.Windows(now)) }

// Decide answers in the legacy shape of Windows.
func (h *HHP) Decide(now time.Duration) Decision { return legacyDecision(h.Windows(now)) }

// legacyTier pins a policy's Decide to the legacy shape of its Windows.
type legacyTier struct{ Policy }

func (l legacyTier) Decide(now time.Duration) Decision { return legacyDecision(l.Windows(now)) }

// LegacyTier wraps a policy so that it decides in the legacy shape even
// when it has native tier support: fig16 and the facade replay policies
// on their windows alone, and fig16t runs the same LSTH histograms with
// and without tiering.
func LegacyTier(p Policy) Policy { return legacyTier{p} }

// Decide is LSTH's native tier-aware ruling: the same blended
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
	d := Decision{Prewarm: pw, KeepAlive: keep, IdleTier: artifact.TierSSD}
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
