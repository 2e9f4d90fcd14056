package runtime

// rates.go groups per-function RateEstimators into a striped map, with
// plane-wide totals on an atomic per-second ring. It was built for a
// gateway whose request goroutines observed arrivals concurrently:
// different functions hash to different stripes and the plane rate is
// sampled without blocking an arrival. Both planes now run one
// single-threaded sim.Engine, which takes each function's estimator once
// through Get and feeds the ring through PlaneObserve; the stripe locks,
// the atomics and the name-keyed Observe/Demand serve no concurrent
// caller any more (only benchmark/layers.go times them) and are kept
// until that harness lets them go (ROADMAP item 4b).

import (
	"sync"
	"sync/atomic"
	"time"
)

// rateStripeCount is the number of lock stripes; a power of two so the
// hash folds with a mask. 16 stripes keep contention negligible at
// gateway arrival rates while staying cache-compact.
const rateStripeCount = 16

// RateStripes is a striped map of per-function RateEstimators plus a
// lock-free plane-wide arrival ring. Concurrent use is safe for the
// name-keyed methods and PlaneObserve/PlaneRate; pointers obtained via
// Get are the single-threaded fast path and follow RateEstimator's own
// (unsynchronized) contract.
type RateStripes struct {
	window  time.Duration
	stripes [rateStripeCount]rateStripe
	plane   planeRing
}

type rateStripe struct {
	mu sync.Mutex
	m  map[string]*RateEstimator
}

// NewRateStripes creates the striped map with the given estimation
// window (applied to every per-function estimator and the plane ring).
func NewRateStripes(window time.Duration) *RateStripes {
	rs := &RateStripes{window: window}
	for i := range rs.stripes {
		rs.stripes[i].m = make(map[string]*RateEstimator)
	}
	rs.plane.init(window)
	return rs
}

// stripe hashes name to its lock stripe (FNV-1a folded to the stripe
// mask; stable across runs, so stripe assignment is deterministic).
func (rs *RateStripes) stripe(name string) *rateStripe {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &rs.stripes[h&(rateStripeCount-1)]
}

// get returns the estimator for name, creating it if absent. The
// stripe's lock must be held.
func (st *rateStripe) get(name string, window time.Duration) *RateEstimator {
	re := st.m[name]
	if re == nil {
		re = NewRateEstimator(window)
		st.m[name] = re
	}
	return re
}

// Get returns name's estimator, creating it on first use. The returned
// pointer is not stripe-guarded: it is the fast path for single-threaded
// planes (the simulator) that want zero lock and map cost per arrival.
// Concurrent planes use the name-keyed methods instead.
func (rs *RateStripes) Get(name string) *RateEstimator {
	st := rs.stripe(name)
	st.mu.Lock()
	re := st.get(name, rs.window)
	st.mu.Unlock()
	return re
}

// Remove drops name's estimator (function undeployed).
func (rs *RateStripes) Remove(name string) {
	st := rs.stripe(name)
	st.mu.Lock()
	delete(st.m, name)
	st.mu.Unlock()
}

// Observe records one arrival for name at plane time now, under the
// name's stripe lock, and feeds the plane-wide ring.
func (rs *RateStripes) Observe(name string, now time.Duration) {
	st := rs.stripe(name)
	st.mu.Lock()
	st.get(name, rs.window).Observe(now)
	st.mu.Unlock()
	rs.plane.observe(now)
}

// Demand returns name's scale-out demand: max(windowed estimate, burst
// rate), floored at one RPS — the sizing input of reactive scale-out
// paths. One stripe acquisition answers both estimators.
func (rs *RateStripes) Demand(name string, now time.Duration) float64 {
	st := rs.stripe(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if re := st.m[name]; re != nil {
		return re.Demand(now)
	}
	return 1
}

// PlaneObserve feeds the plane-wide ring without touching any stripe —
// the hook for planes that observe per-function arrivals through Get
// pointers but still want the aggregate.
func (rs *RateStripes) PlaneObserve(now time.Duration) {
	rs.plane.observe(now)
}

// PlaneRate returns the plane-wide arrival rate (RPS) over the window.
func (rs *RateStripes) PlaneRate(now time.Duration) float64 {
	return rs.plane.rate(now)
}

// planeRing is the lock-free plane-wide analogue of RateEstimator:
// per-second buckets stamped with the absolute second they hold, all
// accessed with atomics. A bucket crossing a second boundary is reset by
// whichever observer wins the stamp CAS; a concurrent observer that
// loses the race may add its count to the bucket just before or after
// the reset, so the ring can momentarily miscount one bucket by a few
// arrivals. The aggregate is monitoring-grade — scheduling decisions
// never read it — and in exchange observation is wait-free on the happy
// path: a load of the bucket's stamp, an atomic add to its count, and a
// load of start (its compare-and-swap runs only until the first
// observation has set it).
type planeRing struct {
	window time.Duration
	stamps []atomic.Int64
	counts []atomic.Uint64
	start  atomic.Int64 // first observed second + 1 (0 = none yet)
}

func (pr *planeRing) init(window time.Duration) {
	n := int(window / time.Second)
	if n < 1 {
		n = 1
	}
	pr.window = window
	pr.stamps = make([]atomic.Int64, n)
	pr.counts = make([]atomic.Uint64, n)
	for i := range pr.stamps {
		pr.stamps[i].Store(-1)
	}
}

func (pr *planeRing) observe(now time.Duration) {
	sec := int64(now / time.Second)
	i := int(sec % int64(len(pr.stamps)))
	if old := pr.stamps[i].Load(); old != sec {
		if pr.stamps[i].CompareAndSwap(old, sec) {
			pr.counts[i].Store(0)
		}
	}
	pr.counts[i].Add(1)
	if pr.start.Load() == 0 { // the CAS succeeds once; a load is not a locked instruction
		pr.start.CompareAndSwap(0, sec+1)
	}
}

func (pr *planeRing) rate(now time.Duration) float64 {
	sec := int64(now / time.Second)
	var sum uint64
	for i := range pr.stamps {
		if s := pr.stamps[i].Load(); s >= 0 && sec-s < int64(len(pr.stamps)) {
			sum += pr.counts[i].Load()
		}
	}
	if sum == 0 {
		return 0
	}
	// Early in the run the ring covers less than the window; divide by
	// the elapsed span so a young plane is not under-reported.
	span := pr.window.Seconds()
	if first := pr.start.Load(); first != 0 {
		if elapsed := float64(sec-(first-1)) + 1; elapsed < span {
			span = elapsed
		}
	}
	if span <= 0 {
		span = 1
	}
	return float64(sum) / span
}
