package simclock

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refEvent is one scheduling as the reference sees it. id is the order
// of scheduling, which is the clock's seq order.
type refEvent struct {
	at    Time
	id    int
	spawn int  // generations of children its callback still schedules
	live  bool // not yet fired, cancelled or dropped by Reset
}

// refClock is the reference the heap is compared against: the queue is a
// plain slice, and the next event is whatever a stable sort by instant
// puts first. Events enter in scheduling order, so the stable sort by
// `at` alone is the order by (at, seq).
type refClock struct {
	now   Time
	queue []*refEvent
	all   []*refEvent // by id
	fired []int
	peeks []Time // what the callbacks that call Next saw, -1 for nothing
}

func (r *refClock) schedule(at Time, spawn int) {
	e := &refEvent{at: at, id: len(r.all), spawn: spawn, live: true}
	r.all = append(r.all, e)
	r.queue = append(r.queue, e)
}

func (r *refClock) next() *refEvent {
	live := r.queue[:0]
	for _, e := range r.queue {
		if e.live {
			live = append(live, e)
		}
	}
	r.queue = live
	sort.SliceStable(r.queue, func(i, j int) bool { return r.queue[i].at < r.queue[j].at })
	if len(r.queue) == 0 {
		return nil
	}
	return r.queue[0]
}

func (r *refClock) step() bool {
	e := r.next()
	if e == nil {
		return false
	}
	r.now = e.at
	e.live = false
	r.fired = append(r.fired, e.id)
	if cancelsPrev(e.id) {
		r.all[e.id-1].live = false
	}
	if peeksNext(e.id) {
		at := Time(-1)
		if n := r.next(); n != nil {
			at = n.at
		}
		r.peeks = append(r.peeks, at)
	}
	if e.spawn > 0 {
		r.schedule(r.now+childDelay(e.id), e.spawn-1)
	}
	return true
}

func (r *refClock) runUntil(deadline Time) {
	for {
		e := r.next()
		if e == nil || e.at > deadline {
			break
		}
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refClock) reset() {
	for _, e := range r.queue {
		e.live = false
	}
	r.queue = r.queue[:0]
	r.now = 0
}

func (r *refClock) live() int {
	n := 0
	for _, e := range r.queue {
		if e.live {
			n++
		}
	}
	return n
}

// childDelay is what an event's callback passes to ScheduleAfter; a
// function of the id so that clock and reference agree without talking.
// Zero (a child at the parent's own instant) is the common case.
func childDelay(id int) time.Duration {
	return time.Duration(id*7%4) * time.Millisecond
}

// cancelsPrev and peeksNext pick the events whose callbacks cancel the
// event scheduled just before them and ask the clock for its next
// instant: both reach the heap while the firing event's slot is a hole,
// and a cancel can compact it there.
func cancelsPrev(id int) bool { return id%3 == 1 }
func peeksNext(id int) bool   { return id%6 == 1 }

// heapHarness drives a Clock with the operations the reference mirrors.
type heapHarness struct {
	t      *testing.T
	c      *Clock
	ref    *refClock
	timers []Timer // by id
	fired  []int
	peeks  []Time
}

func (h *heapHarness) schedule(at Time, spawn int, after bool) {
	id := len(h.timers)
	h.timers = append(h.timers, Timer{})
	fn := func() {
		h.fired = append(h.fired, id)
		if h.timers[id].Pending() || h.timers[id].At() != 0 {
			h.t.Errorf("event %d is pending while its own callback runs", id)
		}
		h.timers[id].Cancel() // a no-op: it must not plant a tombstone
		if cancelsPrev(id) {
			h.timers[id-1].Cancel()
		}
		if peeksNext(id) {
			at, ok := h.c.Next()
			if !ok {
				at = -1
			}
			h.peeks = append(h.peeks, at)
		}
		if spawn > 0 {
			h.schedule(h.c.Now()+childDelay(id), spawn-1, true)
		}
	}
	if after {
		h.timers[id] = h.c.ScheduleAfter(at-h.c.Now(), fn)
	} else {
		h.timers[id] = h.c.ScheduleAt(at, fn)
	}
}

// check compares everything observable with the reference.
func (h *heapHarness) check(step int, op string, rng *rand.Rand) {
	h.t.Helper()
	if h.c.Now() != h.ref.now {
		h.t.Fatalf("step %d (%s): now = %v, reference %v", step, op, h.c.Now(), h.ref.now)
	}
	if len(h.fired) != len(h.ref.fired) {
		h.t.Fatalf("step %d (%s): fired %d events, reference %d", step, op, len(h.fired), len(h.ref.fired))
	}
	for i := len(h.fired) - 1; i >= 0 && i >= len(h.fired)-64; i-- {
		if h.fired[i] != h.ref.fired[i] {
			h.t.Fatalf("step %d (%s): fired[%d] = event %d, reference event %d", step, op, i, h.fired[i], h.ref.fired[i])
		}
	}
	if !slices.Equal(h.peeks, h.ref.peeks) {
		h.t.Fatalf("step %d (%s): callbacks' Next() saw %v, reference %v", step, op, h.peeks, h.ref.peeks)
	}
	agree := func(e *refEvent) {
		tm := h.timers[e.id]
		wantAt := Time(0)
		if e.live {
			wantAt = e.at
		}
		if tm.Pending() != e.live || tm.At() != wantAt {
			h.t.Fatalf("step %d (%s): event %d Pending=%v At=%v, reference live=%v at %v",
				step, op, e.id, tm.Pending(), tm.At(), e.live, e.at)
		}
	}
	for _, e := range h.ref.queue {
		agree(e)
	}
	// Handles long gone, most of whose pooled events serve a later scheduling.
	for i := 0; i < 8 && len(h.ref.all) > 0; i++ {
		agree(h.ref.all[rng.Intn(len(h.ref.all))])
	}
	if live := h.ref.live(); len(h.c.pending) > 2*live {
		h.t.Fatalf("step %d (%s): %d queue slots for %d live events", step, op, len(h.c.pending), live)
	}
	next, ok := h.c.Next()
	if e := h.ref.next(); ok != (e != nil) || (ok && next != e.at) {
		h.t.Fatalf("step %d (%s): Next() = %v, %v; reference next is %+v", step, op, next, ok, e)
	}
}

// TestHeapMatchesSortedReference drives the clock and a sorted-slice
// reference through the same random schedule/cancel/fire sequence and
// compares them after every operation: what fired and in which order,
// the time, every outstanding handle, and the queue's size bound.
func TestHeapMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &heapHarness{t: t, c: New(), ref: &refClock{}}
		compactions, resets := 0, 0
		for step := 0; step < 20000; step++ {
			var op string
			before := h.c.tombstones
			live := h.ref.live()
			switch p := rng.Intn(100); {
			case p < 50 && live < 400:
				// A handful of distinct instants: most schedulings tie.
				op = "ScheduleAt"
				at := h.ref.now + time.Duration(rng.Intn(6))*time.Millisecond
				spawn := 0
				if rng.Intn(3) == 0 {
					spawn = 1 + rng.Intn(3)
				}
				h.ref.schedule(at, spawn)
				h.schedule(at, spawn, false)
			case p < 70:
				// Cancel in bursts, old handles and new, so tombstones cross
				// the compaction threshold again and again.
				op = "Cancel"
				for n := rng.Intn(12); n > 0 && len(h.timers) > 0; n-- {
					id := rng.Intn(len(h.timers))
					if q := h.ref.queue; n%2 == 0 && len(q) > 0 {
						id = q[rng.Intn(len(q))].id
					}
					h.timers[id].Cancel()
					h.ref.all[id].live = false
				}
			case p < 92:
				op = "Step"
				if got, want := h.c.Step(), h.ref.step(); got != want {
					t.Fatalf("seed %d step %d: Step() = %v, reference %v", seed, step, got, want)
				}
			case p < 99:
				op = "RunUntil"
				deadline := h.ref.now + time.Duration(rng.Intn(4))*time.Millisecond
				h.c.RunUntil(deadline)
				h.ref.runUntil(deadline)
			default:
				if rng.Intn(20) == 0 {
					op = "Reset"
					resets++
					h.c.Reset()
					h.ref.reset()
				}
			}
			if h.c.tombstones < before && op == "Cancel" {
				compactions++
			}
			h.check(step, op, rng)
		}
		// The scenario must keep exercising what it is here for.
		if len(h.fired) < 3000 || compactions < 100 || resets == 0 {
			t.Errorf("seed %d: %d events fired, %d compactions from Cancel, %d resets: the mix has drifted",
				seed, len(h.fired), compactions, resets)
		}
	}
}

// A callback that resets the clock takes its own event's slot with the
// rest; Step must not hand that event to the free list a second time.
func TestResetDuringCallback(t *testing.T) {
	c := New()
	var fired []int
	for i := 0; i < 10; i++ {
		c.ScheduleAt(time.Duration(i)*time.Second, func() {
			fired = append(fired, i)
			if i == 3 {
				c.Reset()
				c.ScheduleAt(time.Second, func() { fired = append(fired, 100) })
			}
		})
	}
	for c.Step() {
	}
	if want := []int{0, 1, 2, 3, 100}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	seen := map[*event]bool{}
	for _, e := range c.free {
		if seen[e] {
			t.Fatal("an event is on the free list twice")
		}
		seen[e] = true
	}
	if len(c.free) != 10 {
		t.Fatalf("free list holds %d events, want the 10 the clock made", len(c.free))
	}
}

// TestScheduleStepDoesNotAllocate: with a standing population in the
// queue and the free list covering it, scheduling and firing allocate
// nothing — neither an event nor queue growth.
func TestScheduleStepDoesNotAllocate(t *testing.T) {
	c := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		c.ScheduleAfter(time.Duration(i)*time.Second, fn)
	}
	pairs := func() {
		for i := 0; i < 1000; i++ {
			c.ScheduleAfter(time.Duration(i%128)*time.Second, fn)
			c.Step()
		}
	}
	pairs() // grows the queue and the free list to the working size
	if allocs := testing.AllocsPerRun(10, pairs); allocs > 0 {
		t.Fatalf("1000 schedule/fire pairs allocate %.1f times, want 0", allocs)
	}
}
