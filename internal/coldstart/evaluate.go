package coldstart

// evaluate.go replays one function's invocation trace against a Policy,
// pricing each start by the storage tier the artifact occupies when the
// request lands. It is the engine behind the fig16 and fig16t benches
// and the facade's EvaluateColdStartPolicy; fig16 and the facade wrap
// their policies in LegacyTier, so their LSTH rows stay on Windows.

import (
	"sort"
	"time"

	"github.com/tanklab/infless/internal/artifact"
)

// dramResidentCost is the resident-cost weight of a DRAM-paused
// container relative to a fully warm instance: the container holds host
// memory and no device resources. Wasted() charges paused time at this
// rate so tiered and legacy policies compare on one number.
const dramResidentCost = 0.25

// preloadHorizonFactor bounds how long after the pause stage ends the
// opportunistic pre-loader still covers an arrival: InstaInfer-style
// pre-loading parks the artifact in *another* warm-but-idle instance's
// spare memory, so the coverage window is borrowed rather than owned.
const preloadHorizonFactor = 4

// Result summarizes a policy replay over one function's trace.
type Result struct {
	Policy      string
	Invocations int
	// ColdStarts counts starts that paid the container boot: the
	// artifact was at SSD or remote with no live container.
	ColdStarts int
	// PausedResumes counts starts served by resuming a DRAM-paused
	// container (no boot, only the DRAM-to-device copy).
	PausedResumes int
	// PreloadedStarts counts starts served from an artifact the
	// pre-loader had parked in a warm peer instance's spare memory.
	PreloadedStarts int
	// WarmWasted is fully-warm resident time never hit by an arrival
	// (the paper's "idle resource waste"): keep-alive time spent waiting
	// plus keep-alive time that expired unused.
	WarmWasted time.Duration
	// PausedWasted is DRAM-paused time never hit by an arrival, before
	// cost weighting.
	PausedWasted time.Duration
	// TotalStartup sums every start's delay (cold loads, paused
	// resumes, pre-loaded adoptions; warm hits contribute zero).
	TotalStartup time.Duration
}

// ColdRate is the fraction of invocations that suffered a true cold
// start (container boot paid).
func (r Result) ColdRate() float64 {
	if r.Invocations == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(r.Invocations)
}

// Wasted is the warm-instance-equivalent resident waste: fully-warm
// waste plus DRAM-paused waste at dramResidentCost.
func (r Result) Wasted() time.Duration {
	return r.WarmWasted + time.Duration(dramResidentCost*float64(r.PausedWasted))
}

// WastePerInvocation is the mean warm-equivalent waste charged per
// request.
func (r Result) WastePerInvocation() time.Duration {
	if r.Invocations == 0 {
		return 0
	}
	return r.Wasted() / time.Duration(r.Invocations)
}

// MeanStartup is the mean start delay over all invocations.
func (r Result) MeanStartup() time.Duration {
	if r.Invocations == 0 {
		return 0
	}
	return r.TotalStartup / time.Duration(r.Invocations)
}

// Evaluate replays a single function's invocation instants (virtual
// times, will be sorted) against a policy over the given storage
// hierarchy, in the style of the ATC'20 evaluation. After each
// invocation the policy's Decision sets the next gap's timeline (see its
// doc): warm window [Prewarm, Prewarm+KeepAlive]; outside it the
// artifact sits at IdleTier for IdleFor past the keep-alive window (a
// DRAM IdleTier is a paused container: resume pays only the DRAM load,
// no boot), then on local SSD, where a start pays boot plus the SSD
// load. With preload, an arrival landing within
// preloadHorizonFactor×IdleFor past the pause stage finds the artifact
// pre-loaded into a warm peer's spare memory and pays the DRAM load
// only — borrowed memory, so no waste is charged for it.
//
// A legacy-shaped Decision (Fixed, HHP, anything under LegacyTier) is
// the binary model: the next arrival is warm iff its idle gap lands
// inside the warm window, and an expired window is all waste.
func Evaluate(p Policy, h artifact.Hierarchy, sizeMB int, preload bool, arrivals []time.Duration) Result {
	res := Result{Policy: p.Name(), Invocations: len(arrivals)}
	if len(arrivals) == 0 {
		return res
	}
	ts := append([]time.Duration(nil), arrivals...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })

	resume := h.LoadTime(sizeMB, artifact.TierDRAM) // paused-container resume: DRAM -> device
	res.ColdStarts++                                // the very first invocation is always cold
	res.TotalStartup += h.Startup(sizeMB, artifact.TierSSD).Total()
	for i := 1; i < len(ts); i++ {
		idle := ts[i] - ts[i-1]
		d := p.Decide(ts[i-1])
		warmFrom := d.Prewarm
		warmTo := d.Prewarm + d.KeepAlive
		paused := d.IdleTier == artifact.TierDRAM
		pauseEnd := warmTo + d.IdleFor
		switch {
		case idle >= warmFrom && idle <= warmTo:
			// Warm hit; resident from warmFrom until the arrival.
			res.WarmWasted += idle - warmFrom
		case idle < warmFrom:
			// Arrived before the pre-warmed instance: a paused container
			// still resumes without boot; otherwise this is the legacy
			// early cold start, priced at the idle tier.
			if paused {
				res.PausedResumes++
				res.PausedWasted += idle
				res.TotalStartup += resume
			} else {
				res.ColdStarts++
				res.TotalStartup += h.Startup(sizeMB, d.IdleTier).Total()
			}
		case idle <= pauseEnd:
			// Keep-alive expired unused; the pause stage covers the
			// arrival (or, without one, this is the legacy expired-window
			// cold start).
			res.WarmWasted += d.KeepAlive
			if paused {
				res.PausedResumes++
				res.PausedWasted += idle - warmTo
				res.TotalStartup += resume
			} else {
				res.ColdStarts++
				res.TotalStartup += h.Startup(sizeMB, d.IdleTier).Total()
			}
		default:
			// Past the pause stage: the whole warm window (and any pause
			// stage) was waste.
			res.WarmWasted += d.KeepAlive
			if paused {
				res.PausedWasted += d.IdleFor
			}
			if preload && paused && idle <= pauseEnd+preloadHorizonFactor*d.IdleFor {
				res.PreloadedStarts++
				res.TotalStartup += resume
			} else {
				res.ColdStarts++
				res.TotalStartup += h.Startup(sizeMB, artifact.TierSSD).Total()
			}
		}
		p.RecordIdle(idle, ts[i])
	}
	return res
}
