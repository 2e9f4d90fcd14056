package telemetry

// window.go is the rolling-window accumulator behind the collector's
// rate and SLO-attainment figures: a fixed ring of time buckets, so a
// long-running gateway reports "the last minute", not lifetime totals.

import "time"

// winBuckets is the ring size; bucket width is Window / winBuckets.
const winBuckets = 60

type winBucket struct {
	start time.Duration
	// valid distinguishes a written bucket from the ring's zero value
	// (whose start of 0 would otherwise look like a live bucket at t=0).
	valid      bool
	arrived    uint64
	served     uint64
	dropped    uint64
	violations uint64
}

type window struct {
	width time.Duration
	ring  [winBuckets]winBucket
}

func newWindow(span time.Duration) window {
	w := span / winBuckets
	if w <= 0 {
		w = time.Second
	}
	return window{width: w}
}

// span is the total coverage of the ring.
func (w *window) span() time.Duration { return w.width * winBuckets }

// bucket returns the live bucket for plane time now, recycling stale
// ring slots in place (no allocation).
func (w *window) bucket(now time.Duration) *winBucket {
	k := now / w.width
	start := k * w.width // now − now%width: Go's division truncates
	b := &w.ring[int(k)%winBuckets]
	if !b.valid || b.start != start {
		*b = winBucket{start: start, valid: true}
	}
	return b
}

// tally sums the buckets that fall inside (now-span, now] and returns
// the counts with the window width actually covered (shorter early in a
// run, so rates are not diluted by time that never happened).
func (w *window) tally(now time.Duration) (arrived, served, dropped, violations uint64, covered time.Duration) {
	oldest := now - w.span()
	for i := range w.ring {
		b := &w.ring[i]
		if !b.valid || b.start <= oldest || b.start > now {
			continue
		}
		arrived += b.arrived
		served += b.served
		dropped += b.dropped
		violations += b.violations
	}
	covered = w.span()
	if now < covered {
		covered = now
	}
	return
}
