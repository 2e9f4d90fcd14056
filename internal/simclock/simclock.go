// Package simclock provides a deterministic virtual clock and event queue
// for discrete-event simulation.
//
// Events are executed in non-decreasing timestamp order; events scheduled
// for the same instant run in the order they were scheduled (FIFO), which
// keeps simulations fully deterministic for a given seed and scenario.
//
// Event objects are pooled: once an event has fired (or has been cancelled
// and drained), the clock recycles it for a later ScheduleAt call, so the
// steady-state simulation loop schedules without allocating. Callers never
// see the pooled object: ScheduleAt returns a Timer, a value handle that
// remembers which scheduling of the object it refers to and turns into a
// no-op once that scheduling has fired, been cancelled or been recycled.
// A stored Timer therefore needs no clearing and can be cancelled or
// queried at any time.
//
// The queue is a heap written for its one element type: each entry
// carries its ordering key (at, seq) inline, so a sift compares without
// dereferencing an event, and moves a hole instead of swapping; the
// fired event's slot stays a hole while its callback runs (Step).
// (at, seq) is a total order — seq is unique — so the firing sequence
// does not depend on the heap's shape.
package simclock

import (
	"fmt"
	"time"
)

// Time is virtual time measured as an offset from the simulation start.
type Time = time.Duration

// event is one pooled scheduled callback.
type event struct {
	at       Time
	seq      uint64 // unique per scheduling: FIFO tie-break and Timer generation
	fn       func()
	queued   bool // has an entry in Clock.pending
	canceled bool
	clk      *Clock
}

// Timer refers to one scheduled callback. The zero Timer refers to
// nothing. Methods take value receivers, so a Timer can be used straight
// off a Schedule call or copied freely.
type Timer struct {
	e   *event
	seq uint64 // e.seq at scheduling time; a mismatch means e was reused
}

// Pending reports whether the callback is still going to fire: it has
// not run (or started running), not been cancelled, and not been dropped
// by Reset.
func (t Timer) Pending() bool {
	return t.e != nil && t.e.seq == t.seq && t.e.queued && !t.e.canceled
}

// At returns the virtual time a pending callback fires at, 0 otherwise.
func (t Timer) At() Time {
	if !t.Pending() {
		return 0
	}
	return t.e.at
}

// Cancel prevents a pending callback from firing and is a no-op
// otherwise. A cancelled event stays in the queue as a tombstone until
// it is drained in timestamp order or the clock compacts the queue (see
// maybeCompact).
func (t Timer) Cancel() {
	if !t.Pending() {
		return
	}
	t.e.canceled = true
	t.e.clk.tombstones++
	t.e.clk.maybeCompact()
}

// entry is one slot of the pending heap: the event and a copy of its
// ordering key.
type entry struct {
	at  Time
	seq uint64
	e   *event
}

// before is the firing order: earlier instant first, scheduling order
// within an instant.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// siftDown places it in the subtree rooted at the vacant slot i of the
// binary heap h, moving the smaller child up into the hole until it fits.
func siftDown(h []entry, i int, it entry) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if right := child + 1; right < len(h) && h[right].before(h[child]) {
			child = right
		}
		if !h[child].before(it) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = it
}

// push adds it to the heap. While a callback runs, the first entry takes
// the root hole Step left and sifts down from there; any other goes in at
// the end, moving larger parents down into the hole that opens there.
func (c *Clock) push(it entry) {
	if c.vacant {
		c.vacant = false
		siftDown(c.pending, 0, it)
		return
	}
	h := append(c.pending, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	c.pending = h
}

// popTop removes the heap's root, or closes the hole where it was.
func (c *Clock) popTop() {
	h := c.pending
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	if n > 0 {
		siftDown(h, 0, last)
	}
	c.pending = h
}

// Clock owns virtual time and the pending event queue.
// The zero value is ready to use at time 0.
type Clock struct {
	now        Time
	seq        uint64
	pending    []entry  // heap ordered by entry.before
	free       []*event // recycled event objects, see package doc
	tombstones int      // cancelled events still sitting in pending
	vacant     bool     // pending[0] is a hole: Step's event left it, its callback runs
}

// fill closes the root hole, if Step left one, with the last entry.
func (c *Clock) fill() {
	if c.vacant {
		c.vacant = false
		c.popTop()
	}
}

// New returns a clock positioned at virtual time 0 with no pending events.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// alloc takes an event from the free list, or makes one.
func (c *Clock) alloc(at Time, fn func()) *event {
	var e *event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		// free-list miss: only until the pool covers the standing event population
		e = &event{clk: c}
	}
	e.at, e.fn, e.canceled = at, fn, false
	e.seq = c.seq
	c.seq++
	return e
}

// recycle returns an event that has left the queue to the free list. The
// closure is dropped immediately so captured state does not outlive the
// event.
func (c *Clock) recycle(e *event) {
	e.fn = nil
	e.queued = false
	c.free = append(c.free, e)
}

// ScheduleAt registers fn to run at virtual time at. Scheduling in the past
// panics: it indicates a logic error in the simulation, never valid input.
func (c *Clock) ScheduleAt(at Time, fn func()) Timer {
	if at < c.now {
		// the panic path
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, c.now))
	}
	e := c.alloc(at, fn)
	e.queued = true
	c.push(entry{at, e.seq, e})
	return Timer{e, e.seq}
}

// ScheduleAfter registers fn to run d after the current virtual time.
// Negative d is clamped to zero.
func (c *Clock) ScheduleAfter(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return c.ScheduleAt(c.now+d, fn)
}

// peek drains cancelled events off the top of the queue and returns the
// next live event, or nil when none remain.
func (c *Clock) peek() *event {
	c.fill()
	for len(c.pending) > 0 {
		e := c.pending[0].e
		if !e.canceled {
			return e
		}
		c.popTop()
		c.tombstones--
		c.recycle(e)
	}
	return nil
}

// Next returns the timestamp of the next event to fire, and false when
// none is pending. A wall-paced driver sleeps until it.
func (c *Clock) Next() (Time, bool) {
	e := c.peek()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// maybeCompact rebuilds the queue without tombstones once more than half
// of it is cancelled events. Draining tombstones lazily keeps Cancel O(1),
// but a cancel-heavy workload (e.g. batch timeouts that almost always get
// re-armed) would otherwise grow the heap without bound; compaction bounds
// it at 2x the live events, amortizing the rebuild over the cancels that
// forced it. Cancel and Step both check: either can tip the balance, one
// by adding a tombstone, the other by removing a live event. The engine's
// keep-alive timers leave no tombstones in steady state (a deadline that
// moves later waits for the armed timer to fire and re-arms then); its
// batch timeouts still do.
func (c *Clock) maybeCompact() {
	if c.tombstones*2 > len(c.pending) {
		c.compact()
	}
}

// compact drops every tombstone and restores the heap.
func (c *Clock) compact() {
	c.fill()
	live := c.pending[:0]
	for _, it := range c.pending {
		if it.e.canceled {
			c.recycle(it.e)
		} else {
			live = append(live, it)
		}
	}
	clear(c.pending[len(live):])
	c.pending = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		siftDown(live, i, live[i])
	}
	c.tombstones = 0
}

// Step executes the next pending event, advancing virtual time to its
// timestamp. It returns false when the queue is empty (cancelled events
// do not count). The fired event is recycled after its callback returns.
//
// The event's slot at the root stays a hole while its callback runs: the
// first event the callback schedules takes it with one sift-down, where
// a pop before the callback and a push in it would cost a sift each. A
// self-re-arming event, such as an arrival stream, so costs one sift a
// firing. Anything else that reads or rebuilds the heap first fills the
// hole with the last entry, as a pop would have.
func (c *Clock) Step() bool {
	e := c.peek()
	if e == nil {
		return false
	}
	c.vacant = true
	e.queued = false
	c.now = e.at
	e.fn()
	c.fill()
	c.maybeCompact()
	c.recycle(e)
	return true
}

// RunUntil executes events with timestamp <= deadline, then advances the
// clock to the deadline. Events scheduled during execution are honored if
// they fall within the deadline.
func (c *Clock) RunUntil(deadline Time) {
	for {
		e := c.peek()
		if e == nil || e.at > deadline {
			break
		}
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// Reset drops all pending events (recycling them) and rewinds the clock
// to zero. seq is not rewound: it is the Timer generation, and a Timer
// taken before Reset must not match an event scheduled after it (event
// ordering only ever compares seq values relatively).
func (c *Clock) Reset() {
	c.fill()
	for _, it := range c.pending {
		c.recycle(it.e)
	}
	clear(c.pending)
	c.pending = c.pending[:0]
	c.now = 0
	c.tombstones = 0
}
