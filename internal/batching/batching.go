// Package batching implements INFless's built-in, non-uniform batching
// (Section 3.2): per-instance batch queues, the Eq. 1 workload bounds
// that keep every instance's arrival rate inside [r_low, r_up], and the
// alpha-damped rate-allocation rule (cases i-iii) that divides a
// function's aggregate RPS across its instances without scaling
// oscillation.
package batching

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrInfeasible is returned when a configuration cannot satisfy the SLO:
// for batched instances the batch submission speed must not exceed the
// batch execution speed, i.e. t_exec <= t_slo / 2.
var ErrInfeasible = errors.New("batching: t_exec incompatible with t_slo")

// Bounds is the admissible request-rate window of one instance (Eq. 1).
type Bounds struct {
	RLow float64 // requests/second; below this, batches cannot saturate in time
	RUp  float64 // requests/second; above this, requests would be dropped
}

// RateBounds computes Eq. 1 for an instance with batch size b whose batch
// execution time is texec under latency SLO tslo:
//
//	r_up  = floor(1 / t_exec) * b
//	r_low = ceil(1 / (t_slo - t_exec)) * b
//
// For b == 1 there is no batch queuing, so r_low is 0 and feasibility only
// requires t_exec <= t_slo. For b > 1 feasibility requires
// t_exec <= t_slo/2 (which also guarantees r_low <= r_up).
func RateBounds(texec, tslo time.Duration, b int) (Bounds, error) {
	if b < 1 {
		return Bounds{}, fmt.Errorf("batching: invalid batch size %d", b)
	}
	if texec <= 0 || tslo <= 0 {
		return Bounds{}, fmt.Errorf("batching: non-positive times (texec=%v tslo=%v)", texec, tslo)
	}
	if b == 1 {
		if texec > tslo {
			return Bounds{}, ErrInfeasible
		}
		return Bounds{RLow: 0, RUp: math.Floor(1 / texec.Seconds())}, nil
	}
	if 2*texec > tslo {
		return Bounds{}, ErrInfeasible
	}
	up := math.Floor(1/texec.Seconds()) * float64(b)
	low := math.Ceil(1/(tslo-texec).Seconds()) * float64(b)
	if low > up {
		// The paper's t_exec <= t_slo/2 condition guarantees
		// 1/t_exec >= 1/(t_slo - t_exec), but the floor/ceil rounding can
		// still invert the bounds right at the boundary; such
		// configurations admit no valid rate and are rejected.
		return Bounds{}, ErrInfeasible
	}
	return Bounds{RLow: low, RUp: up}, nil
}

// DefaultAlpha is the damping constant of Section 3.2; the paper sets
// alpha = 0.8 "to avoid frequent scaling oscillation under workload
// fluctuations" while keeping instances near their upper bound.
const DefaultAlpha = 0.8

// Plan is the outcome of dividing a function's aggregate RPS over its
// running instances.
type Plan struct {
	// Rates[i] is the RPS dispatched to instance i (same order as the
	// input bounds). Instances marked for release get rate 0.
	Rates []float64
	// ResidualRPS is workload that existing instances cannot absorb;
	// the auto-scaling engine must launch new instances for it (case i).
	ResidualRPS float64
	// Release lists indices of instances the engine should retire
	// (case iii). Indices refer to the input slice, highest index first.
	Release []int
}

// AllocateRates implements the three-case rate controller of Section 3.2.
//
// Let Rmax = sum r_up, Rmin = sum r_low over active instances:
//
//	(i)   R > Rmax: every instance runs at r_up; the residual R - Rmax is
//	      reported for scale-out.
//	(ii)  alpha*Rmin + (1-alpha)*Rmax <= R <= Rmax: each instance gets
//	      r_up - (Rmax-R)/(Rmax-Rmin) * (r_up - r_low), interpolating all
//	      instances proportionally to their range size. (The paper prints
//	      the denominator as Rmin; Rmax-Rmin is the only choice that maps
//	      R = Rmax to r_up and R = Rmin to r_low, so we use it.)
//	(iii) R below the case-(ii) floor: instances are released, last
//	      first, until the remaining set satisfies case (ii); rates are
//	      then recomputed over the survivors.
func AllocateRates(bounds []Bounds, r float64, alpha float64) Plan {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("batching: alpha %f out of [0,1]", alpha))
	}
	n := len(bounds)
	plan := Plan{Rates: make([]float64, n)}
	if n == 0 {
		plan.ResidualRPS = r
		return plan
	}
	if r < 0 {
		r = 0
	}

	active := n
	rmax, rmin := sums(bounds[:active])

	// Case (iii): shed instances until the floor drops below R, keeping
	// at least one instance while any workload remains. Never shed an
	// instance whose removal would leave the survivors unable to absorb
	// R — that would immediately trigger a scale-out (oscillation).
	for active > 1 && r < alpha*rmin+(1-alpha)*rmax && rmax-bounds[active-1].RUp >= r {
		active--
		plan.Release = append(plan.Release, active)
		rmax, rmin = sums(bounds[:active])
	}
	if r == 0 {
		// Nothing arriving: release everything.
		for i := active - 1; i >= 0; i-- {
			plan.Release = append(plan.Release, i)
		}
		return plan
	}

	switch {
	case r > rmax: // case (i)
		for i := 0; i < active; i++ {
			plan.Rates[i] = bounds[i].RUp
		}
		plan.ResidualRPS = r - rmax
	default: // case (ii), including R slightly below the floor when only one instance remains
		span := rmax - rmin
		for i := 0; i < active; i++ {
			if span <= 0 {
				// Degenerate window (all r_low == r_up): split proportionally.
				plan.Rates[i] = bounds[i].RUp * (r / rmax)
				continue
			}
			frac := (rmax - r) / span
			if frac > 1 {
				frac = 1 // R under the interpolation floor: pin to r_low
			}
			plan.Rates[i] = bounds[i].RUp - frac*(bounds[i].RUp-bounds[i].RLow)
		}
		// When R sits below the survivors' aggregate r_low (only possible
		// once shedding bottoms out), the pinned rates overshoot the
		// offered load; scale down so no phantom workload is dispatched.
		if sum := sumRates(plan.Rates[:active]); sum > r {
			for i := 0; i < active; i++ {
				plan.Rates[i] *= r / sum
			}
		}
	}
	return plan
}

func sumRates(rates []float64) float64 {
	s := 0.0
	for _, r := range rates {
		s += r
	}
	return s
}

func sums(bounds []Bounds) (rmax, rmin float64) {
	for _, b := range bounds {
		rmax += b.RUp
		rmin += b.RLow
	}
	return rmax, rmin
}

// Queue is one instance's batch queue. Requests accumulate until the
// batch is full or the oldest request has waited Timeout; the owner (the
// simulation engine) is responsible for calling Drain at those moments.
// The queue holds at most 2*B requests — one forming batch plus one
// in-flight overflow batch; beyond that, requests are dropped, modelling
// the over-submission drop of Figure 6(a).
type Queue[T any] struct {
	B       int           // target batch size
	Timeout time.Duration // max wait of the oldest queued request

	items  []T
	oldest time.Duration // arrival time of items[0]
}

// NewQueue creates a batch queue for batch size b with the given timeout.
func NewQueue[T any](b int, timeout time.Duration) *Queue[T] {
	if b < 1 {
		panic("batching: queue batch size < 1")
	}
	return &Queue[T]{B: b, Timeout: timeout}
}

// Len returns the number of queued requests.
func (q *Queue[T]) Len() int { return len(q.items) }

// Add offers a request to the queue at virtual time now. It returns false
// if the request was dropped (queue at 2*B capacity). full reports
// whether the head batch is now complete and should be drained.
func (q *Queue[T]) Add(item T, now time.Duration) (accepted, full bool) {
	if len(q.items) >= 2*q.B {
		return false, false
	}
	if len(q.items) == 0 {
		q.oldest = now
	}
	q.items = append(q.items, item)
	return true, len(q.items) >= q.B
}

// Deadline returns the virtual time by which the head batch must be
// submitted to honor the timeout, and ok=false when the queue is empty.
func (q *Queue[T]) Deadline() (time.Duration, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.oldest + q.Timeout, true
}

// Drain removes and returns up to B requests forming the next batch,
// along with the arrival time of its oldest member. It returns ok=false
// when the queue is empty.
func (q *Queue[T]) Drain(now time.Duration) (batch []T, oldest time.Duration, ok bool) {
	return q.DrainInto(nil, now)
}

// DrainInto is Drain with the batch appended to buf[:0], so an owner
// that executes one batch at a time drains without allocating.
func (q *Queue[T]) DrainInto(buf []T, now time.Duration) (batch []T, oldest time.Duration, ok bool) {
	if len(q.items) == 0 {
		return nil, 0, false
	}
	n := q.B
	if n > len(q.items) {
		n = len(q.items)
	}
	batch = append(buf[:0], q.items[:n]...)
	oldest = q.oldest
	q.items = q.items[:copy(q.items, q.items[n:])]
	if len(q.items) > 0 {
		// Remaining requests arrived after the drained ones; their oldest
		// is at most now. We conservatively restart the window at now,
		// which the engine refines by tracking per-request arrival times.
		q.oldest = now
	}
	return batch, oldest, true
}
