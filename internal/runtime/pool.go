package runtime

import (
	"time"

	"github.com/tanklab/infless/internal/coldstart"
)

// Pool is one function's instance bookkeeping. It owns membership,
// monotonically increasing instance IDs, and removal-by-identity;
// lifecycle state (cold/warm/draining) lives on the members themselves.
//
// Not safe for concurrent use: the engine that owns it is
// single-threaded.
type Pool[I comparable] struct {
	members []I
	nextID  int
}

// NextID returns the next instance ID (1, 2, 3, ...).
func (p *Pool[I]) NextID() int {
	p.nextID++
	return p.nextID
}

// Add inserts an instance.
func (p *Pool[I]) Add(inst I) { p.members = append(p.members, inst) }

// Remove deletes an instance by identity, preserving order. It reports
// whether the instance was present (reclaim paths can race with
// failure injection; removing twice is a no-op).
func (p *Pool[I]) Remove(inst I) bool {
	for i, x := range p.members {
		if x == inst {
			p.members = append(p.members[:i], p.members[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the number of live instances.
func (p *Pool[I]) Len() int { return len(p.members) }

// Members returns the live member slice. Callers must not mutate it.
func (p *Pool[I]) Members() []I { return p.members }

// KeepAlive returns how long an idle instance should stay warm before
// reclaim under the function's cold-start policy (nil falls back to the
// fixed default both OpenFaaS and BATCH use).
func KeepAlive(policy coldstart.Policy, now time.Duration) time.Duration {
	if policy == nil {
		return coldstart.DefaultFixedKeepAlive
	}
	_, keep := policy.Windows(now)
	return keep
}

// Credit is the dispatch-credit account of one instance (Section 3.2's
// credit-based weighted dispatching): credit accrues at the instance's
// assigned rate and each routed request spends one unit, which keeps
// per-instance arrivals inside the [r_low, r_up] admission window
// without randomness.
type Credit struct {
	bal float64
}

// Balance returns the current credit.
func (c *Credit) Balance() float64 { return c.bal }

// Add accrues credit, clamped from above by max (at most one burst's
// worth of stored credit); routing one request adds -1.
func (c *Credit) Add(delta, max float64) {
	c.bal += delta
	if c.bal > max {
		c.bal = max
	}
}
