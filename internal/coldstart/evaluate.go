package coldstart

import (
	"sort"
	"time"
)

// Result summarizes a policy replay over one function's invocation trace.
type Result struct {
	Policy      string
	Invocations int
	ColdStarts  int
	// WarmWasted is total image-resident time that was never hit by an
	// invocation (the paper's "idle resource waste"): keep-alive time
	// spent waiting plus keep-alive time that expired unused.
	WarmWasted time.Duration
}

// ColdRate is the fraction of invocations that suffered a cold start.
func (r Result) ColdRate() float64 {
	if r.Invocations == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(r.Invocations)
}

// WastePerInvocation is the mean idle-resident time charged per request.
func (r Result) WastePerInvocation() time.Duration {
	if r.Invocations == 0 {
		return 0
	}
	return r.WarmWasted / time.Duration(r.Invocations)
}

// Evaluate replays a single function's invocation instants (virtual
// times, will be sorted) against a policy, in the style of the ATC'20
// evaluation: after each invocation the image is dropped, re-loaded
// `prewarm` later, and retained for `keepalive`. The next arrival is warm
// iff its idle gap lands inside [prewarm, prewarm+keepalive]. Warm-wasted
// time is the portion of the keep-alive window spent resident without
// serving the arrival.
func Evaluate(p Policy, arrivals []time.Duration) Result {
	res := Result{Policy: p.Name(), Invocations: len(arrivals)}
	if len(arrivals) == 0 {
		return res
	}
	ts := append([]time.Duration(nil), arrivals...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })

	res.ColdStarts++ // the very first invocation is always cold
	for i := 1; i < len(ts); i++ {
		idle := ts[i] - ts[i-1]
		prewarm, keepalive := p.Windows(ts[i-1])
		warmFrom := prewarm
		warmTo := prewarm + keepalive
		switch {
		case idle < warmFrom:
			// Arrived before the image was pre-loaded.
			res.ColdStarts++
		case idle <= warmTo:
			// Warm hit; resident from warmFrom until the arrival.
			res.WarmWasted += idle - warmFrom
		default:
			// Keep-alive expired unused; the whole window was waste.
			res.ColdStarts++
			res.WarmWasted += keepalive
		}
		p.RecordIdle(idle, ts[i])
	}
	return res
}
