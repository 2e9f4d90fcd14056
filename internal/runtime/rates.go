package runtime

import "time"

// RateStripes maps function names to their RateEstimators and keeps the
// plane-wide arrival total on a per-second ring. Not safe for concurrent
// use, like RateEstimator: the single-threaded sim.Engine that owns it
// takes each function's estimator once through Get and feeds the ring
// through PlaneObserve. The name (from a striped design it no longer
// has) and the name-keyed Observe/Demand stay only for the per-layer
// metrics that time them, until ROADMAP item 9 deletes both.
type RateStripes struct {
	window time.Duration
	fns    map[string]*RateEstimator
	plane  planeRing
}

// NewRateStripes creates the map with the given estimation window
// (applied to every per-function estimator and the plane ring).
func NewRateStripes(window time.Duration) *RateStripes {
	return &RateStripes{
		window: window,
		fns:    make(map[string]*RateEstimator),
		plane:  planeRing{RateEstimator: *NewRateEstimator(window), first: -1},
	}
}

// Get returns name's estimator, creating it on first use.
func (rs *RateStripes) Get(name string) *RateEstimator {
	re := rs.fns[name]
	if re == nil {
		re = NewRateEstimator(rs.window)
		rs.fns[name] = re
	}
	return re
}

// Remove drops name's estimator (function undeployed).
func (rs *RateStripes) Remove(name string) { delete(rs.fns, name) }

// Observe records one arrival for name at plane time now and feeds the
// plane-wide ring.
func (rs *RateStripes) Observe(name string, now time.Duration) {
	rs.Get(name).Observe(now)
	rs.plane.observe(now)
}

// Demand returns name's scale-out demand: max(windowed estimate, burst
// rate), floored at one RPS — the sizing input of reactive scale-out
// paths.
func (rs *RateStripes) Demand(name string, now time.Duration) float64 {
	if re := rs.fns[name]; re != nil {
		return re.Demand(now)
	}
	return 1
}

// PlaneObserve feeds the plane-wide ring alone, for a plane that
// observes per-function arrivals through Get pointers.
func (rs *RateStripes) PlaneObserve(now time.Duration) { rs.plane.observe(now) }

// PlaneRate returns the plane-wide arrival rate (RPS) over the window.
func (rs *RateStripes) PlaneRate(now time.Duration) float64 { return rs.plane.rate(now) }

// planeRing is the plane-wide arrival total: a RateEstimator's
// per-second buckets plus the first observed second, so a young plane
// divides by the span it has seen rather than by the time since zero.
// The aggregate is monitoring-grade: scheduling decisions never read it.
type planeRing struct {
	RateEstimator
	first int64 // first observed second (-1 = none yet)
}

func (pr *planeRing) observe(now time.Duration) {
	pr.Observe(now)
	if pr.first < 0 {
		pr.first = int64(now / time.Second)
	}
}

func (pr *planeRing) rate(now time.Duration) float64 {
	sec := int64(now / time.Second)
	var sum uint64
	for i, s := range pr.stamps {
		if s >= 0 && sec-s < int64(len(pr.stamps)) {
			sum += pr.buckets[i]
		}
	}
	if sum == 0 {
		return 0
	}
	// Early in the run the ring covers less than the window; divide by
	// the elapsed span so a young plane is not under-reported. (A bucket
	// counted, so first is set.)
	span := pr.window.Seconds()
	if elapsed := float64(sec-pr.first) + 1; elapsed < span {
		span = elapsed
	}
	if span <= 0 {
		span = 1
	}
	return float64(sum) / span
}
