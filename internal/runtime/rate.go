package runtime

import "time"

// RateEstimator measures arrival rate with per-second ring buckets over
// a sliding window, O(1) per observation regardless of request volume.
// Buckets carry the absolute second they were filled in, so entries
// older than the window expire automatically: after an idle gap the
// estimate decays to zero instead of reporting the pre-idle rate (the
// gateway's former fixed-size arrival log got this wrong).
//
// Not safe for concurrent use: the engine that owns it is
// single-threaded (the gateway drives its engine under one lock).
type RateEstimator struct {
	window  time.Duration
	buckets []uint64
	stamps  []int64 // which absolute second each bucket currently holds
}

// NewRateEstimator creates an estimator over the given window (rounded
// down to whole seconds, minimum one).
//
// First-touch construction: a function's estimator is built once per
// deployment, off the per-arrival path that reaches get().
func NewRateEstimator(window time.Duration) *RateEstimator {
	n := int(window / time.Second)
	if n < 1 {
		n = 1
	}
	re := &RateEstimator{window: window, buckets: make([]uint64, n), stamps: make([]int64, n)}
	for i := range re.stamps {
		re.stamps[i] = -1
	}
	return re
}

// Observe records one arrival at plane time now.
func (re *RateEstimator) Observe(now time.Duration) {
	sec := int64(now / time.Second)
	i := int(sec % int64(len(re.buckets)))
	if re.stamps[i] != sec {
		re.stamps[i] = sec
		re.buckets[i] = 0
	}
	re.buckets[i]++
}

// Burst returns a short-horizon arrival rate: requests in the current
// and previous second divided by the time those buckets actually cover.
// Reactive scale-out paths (the gateway launches on demand, with no
// periodic autoscaler tick) use max(Estimate, Burst) so a sudden surge
// is sized by its instantaneous rate instead of being averaged away
// over the full window. The divisor is floored at 100ms to keep a
// handful of arrivals just after a second boundary from reading as
// thousands of RPS.
func (re *RateEstimator) Burst(now time.Duration) float64 {
	sec := int64(now / time.Second)
	var total uint64
	span := (now % time.Second).Seconds()
	for i := range re.buckets {
		switch re.stamps[i] {
		case sec:
			total += re.buckets[i]
		case sec - 1:
			total += re.buckets[i]
			span += 1.0
		}
	}
	if span < 0.1 {
		span = 0.1
	}
	return float64(total) / span
}

// Demand is the sizing input of a reactive scale-out: max(windowed
// estimate, burst rate), floored at one RPS.
func (re *RateEstimator) Demand(now time.Duration) float64 {
	return max(re.Estimate(now), re.Burst(now), 1)
}

// Estimate returns the mean arrival rate (requests per second) over the
// window ending at now. Early in a run — before a full window has
// elapsed — the divisor is the elapsed time, so startup rates are not
// underestimated.
func (re *RateEstimator) Estimate(now time.Duration) float64 {
	sec := int64(now / time.Second)
	lo := sec - int64(len(re.buckets)) + 1
	var total uint64
	for i := range re.buckets {
		if re.stamps[i] >= lo && re.stamps[i] <= sec {
			total += re.buckets[i]
		}
	}
	span := re.window.Seconds()
	if elapsed := now.Seconds(); elapsed > 0 && elapsed < span {
		span = elapsed
	}
	if span <= 0 {
		return 0
	}
	return float64(total) / span
}
