package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// run executes events until the queue is empty.
func run(c *Clock) {
	for c.Step() {
	}
}

func TestZeroValueUsable(t *testing.T) {
	var c Clock
	ran := false
	c.ScheduleAfter(time.Second, func() { ran = true })
	run(&c)
	if !ran {
		t.Fatal("event did not fire")
	}
	if c.Now() != time.Second {
		t.Fatalf("now = %v, want 1s", c.Now())
	}
}

func TestOrdering(t *testing.T) {
	c := New()
	var got []int
	c.ScheduleAt(3*time.Second, func() { got = append(got, 3) })
	c.ScheduleAt(1*time.Second, func() { got = append(got, 1) })
	c.ScheduleAt(2*time.Second, func() { got = append(got, 2) })
	run(c)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	c := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.ScheduleAt(time.Second, func() { got = append(got, i) })
	}
	run(c)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestCancel(t *testing.T) {
	c := New()
	fired := 0
	e := c.ScheduleAt(time.Second, func() { fired++ })
	c.ScheduleAt(2*time.Second, func() { fired++ })
	e.Cancel()
	if e.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	run(c)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (cancelled event must not run)", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	c := New()
	c.ScheduleAt(5*time.Second, func() {})
	run(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduling in the past")
		}
	}()
	c.ScheduleAt(time.Second, func() {})
}

func TestScheduleDuringEvent(t *testing.T) {
	c := New()
	var got []time.Duration
	c.ScheduleAt(time.Second, func() {
		c.ScheduleAfter(time.Second, func() { got = append(got, c.Now()) })
		c.ScheduleAfter(0, func() { got = append(got, c.Now()) })
	})
	run(c)
	if len(got) != 2 || got[0] != time.Second || got[1] != 2*time.Second {
		t.Fatalf("got %v, want [1s 2s]", got)
	}
}

func TestRunUntil(t *testing.T) {
	c := New()
	fired := 0
	c.ScheduleAt(time.Second, func() { fired++ })
	c.ScheduleAt(3*time.Second, func() { fired++ })
	c.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("now = %v, want 2s (clock advances to deadline)", c.Now())
	}
	c.RunUntil(10 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestRunLimit(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		c.ScheduleAt(time.Duration(i)*time.Second, func() {})
	}
	for i := 0; i < 4; i++ {
		if !c.Step() {
			t.Fatalf("Step %d found the queue empty", i)
		}
	}
	if len(c.pending) != 6 {
		t.Fatalf("pending = %d, want 6", len(c.pending))
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.ScheduleAt(time.Second, func() {})
	run(c)
	c.Reset()
	if c.Now() != 0 || len(c.pending) != 0 {
		t.Fatal("reset did not clear state")
	}
	// Scheduling at t=0 must be legal again.
	c.ScheduleAt(0, func() {})
	run(c)
}

func TestNegativeAfterClamped(t *testing.T) {
	c := New()
	c.RunUntil(time.Second)
	fired := false
	c.ScheduleAfter(-5*time.Second, func() { fired = true })
	run(c)
	if !fired || c.Now() != time.Second {
		t.Fatal("negative delay should clamp to now")
	}
}

// Property: for any set of random timestamps, events fire in sorted order
// and the clock never moves backwards.
func TestPropertyMonotoneExecution(t *testing.T) {
	f := func(stamps []uint16) bool {
		c := New()
		var fireOrder []time.Duration
		for _, s := range stamps {
			at := time.Duration(s) * time.Millisecond
			c.ScheduleAt(at, func() { fireOrder = append(fireOrder, c.Now()) })
		}
		run(c)
		if len(fireOrder) != len(stamps) {
			return false
		}
		if !sort.SliceIsSorted(fireOrder, func(i, j int) bool { return fireOrder[i] < fireOrder[j] }) {
			return false
		}
		want := make([]time.Duration, len(stamps))
		for i, s := range stamps {
			want[i] = time.Duration(s) * time.Millisecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fireOrder[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the others to fire.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		c := New()
		n := 1 + rng.Intn(50)
		events := make([]Timer, n)
		fired := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = c.ScheduleAt(time.Duration(rng.Intn(1000))*time.Millisecond, func() { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				events[i].Cancel()
				cancelled[i] = true
			}
		}
		run(c)
		for i := 0; i < n; i++ {
			if fired[i] == cancelled[i] {
				t.Fatalf("iter %d event %d: fired=%v cancelled=%v", iter, i, fired[i], cancelled[i])
			}
		}
	}
}

// TestTombstoneCompaction is the regression test for the lazy tombstone
// drain: cancelling more than half the queue must compact it in place
// (without waiting for the clock to reach the tombstones' timestamps),
// and the surviving events must still fire in exactly their original
// timestamp/FIFO order.
func TestTombstoneCompaction(t *testing.T) {
	c := New()
	n := 1000
	events := make([]Timer, n)
	var got []int
	for i := 0; i < n; i++ {
		i := i
		events[i] = c.ScheduleAt(time.Duration(i)*time.Millisecond, func() { got = append(got, i) })
	}
	// Cancel every event but the multiples of 10, far more than half.
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			events[i].Cancel()
		}
	}
	live := n / 10
	if p := len(c.pending); p > 2*live {
		t.Fatalf("pending = %d after mass cancel, want <= %d (compaction did not run)", p, 2*live)
	}
	run(c)
	if len(got) != live {
		t.Fatalf("fired %d events, want %d", len(got), live)
	}
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("fire order got[%d] = %d, want %d", i, v, i*10)
		}
	}
	if len(c.pending) != 0 {
		t.Fatalf("pending = %d after run, want 0", len(c.pending))
	}
}

// TestCompactionPreservesFIFO cancels a majority at one instant and
// checks that same-instant survivors keep their scheduling order through
// the heap rebuild.
func TestCompactionPreservesFIFO(t *testing.T) {
	c := New()
	var events []Timer
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		events = append(events, c.ScheduleAt(time.Second, func() { got = append(got, i) }))
	}
	for i, e := range events {
		if i%3 != 0 {
			e.Cancel()
		}
	}
	run(c)
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("same-instant order broken after compaction: %v", got)
		}
	}
	if len(got) != 34 {
		t.Fatalf("fired %d, want 34", len(got))
	}
}

// TestEventPoolReuse pins the pooling behavior: the steady-state
// schedule/fire loop must recycle Event objects instead of allocating.
func TestEventPoolReuse(t *testing.T) {
	c := New()
	e1 := c.ScheduleAfter(time.Millisecond, func() {})
	run(c)
	e2 := c.ScheduleAfter(time.Millisecond, func() {})
	if e1.e != e2.e {
		t.Fatal("fired event was not recycled for the next schedule")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.ScheduleAfter(time.Millisecond, func() {})
		c.Step()
	})
	if allocs > 0 {
		t.Fatalf("schedule/fire loop allocates %.1f/op, want 0", allocs)
	}
}

// TestRunUntilSkipsDeadTop: a cancelled event at the head of the queue
// must not let RunUntil fire a live event past the deadline.
func TestRunUntilSkipsDeadTop(t *testing.T) {
	c := New()
	dead := c.ScheduleAt(time.Second, func() { t.Fatal("cancelled event fired") })
	fired := false
	c.ScheduleAt(3*time.Second, func() { fired = true })
	dead.Cancel()
	c.RunUntil(2 * time.Second)
	if fired {
		t.Fatal("RunUntil fired an event past the deadline")
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("now = %v, want 2s", c.Now())
	}
	c.RunUntil(5 * time.Second)
	if !fired {
		t.Fatal("live event never fired")
	}
}

// TestResetRecyclesPending verifies Reset returns pending events to the
// pool and leaves the clock reusable.
func TestResetRecyclesPending(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		c.ScheduleAfter(time.Second, func() {})
	}
	c.Reset()
	if len(c.pending) != 0 {
		t.Fatalf("pending = %d after reset", len(c.pending))
	}
	allocs := testing.AllocsPerRun(5, func() {
		c.ScheduleAfter(time.Second, func() {})
		c.Step()
	})
	if allocs > 0 {
		t.Fatalf("post-reset schedule allocates %.1f/op, want 0", allocs)
	}
}

// TestTimerStaleHandleIsInert pins the handle contract that replaced
// "nil the stored reference in every callback": a Timer whose callback
// has fired, or whose pooled event now serves a later scheduling, can be
// cancelled and queried freely without touching that later scheduling
// or the tombstone accounting.
func TestTimerStaleHandleIsInert(t *testing.T) {
	c := New()
	var zero Timer
	zero.Cancel()
	if zero.Pending() || zero.At() != 0 {
		t.Fatal("zero Timer must refer to nothing")
	}

	var inCallback Timer
	inCallback = c.ScheduleAt(time.Second, func() {
		if inCallback.Pending() {
			t.Error("Pending() = true inside the timer's own callback")
		}
		inCallback.Cancel()
	})
	if !inCallback.Pending() || inCallback.At() != time.Second {
		t.Fatalf("live timer: Pending=%v At=%v", inCallback.Pending(), inCallback.At())
	}
	run(c)
	stale := inCallback

	// Cancel after fire, before the event is reused.
	stale.Cancel()
	if stale.Pending() || c.tombstones != 0 {
		t.Fatalf("cancel-after-fire: Pending=%v tombstones=%d", stale.Pending(), c.tombstones)
	}

	// Cancel after recycle: the same pooled event now carries a new callback.
	fired := false
	fresh := c.ScheduleAfter(time.Second, func() { fired = true })
	if fresh.e != stale.e {
		t.Fatal("test premise: the fired event should have been reused")
	}
	stale.Cancel()
	if stale.Pending() || stale.At() != 0 {
		t.Fatal("stale handle reports the new scheduling's state")
	}
	if !fresh.Pending() || c.tombstones != 0 || len(c.pending) != 1 {
		t.Fatalf("stale Cancel hit the new scheduling: pending=%v tombstones=%d queue=%d",
			fresh.Pending(), c.tombstones, len(c.pending))
	}
	run(c)
	if !fired {
		t.Fatal("new scheduling did not fire")
	}

	// A real cancel is counted once, however often it is repeated.
	c.ScheduleAfter(time.Second, func() {})
	c.ScheduleAfter(time.Second, func() {})
	victim := c.ScheduleAfter(2*time.Second, func() { t.Error("cancelled timer fired") })
	victim.Cancel()
	victim.Cancel()
	if c.tombstones != 1 || len(c.pending) != 3 {
		t.Fatalf("tombstones=%d pending=%d, want 1 and 3", c.tombstones, len(c.pending))
	}
	run(c)
	if c.tombstones != 0 || len(c.pending) != 0 {
		t.Fatalf("after drain: tombstones=%d pending=%d", c.tombstones, len(c.pending))
	}
}

// TestTimerAcrossReset: Reset keeps seq monotonic, so a handle taken
// before Reset matches no event scheduled after it — it cancels nothing
// and Pending stays exact — even though the pooled event is reused at
// once. (With seq rewound to 0 the first post-Reset event would carry
// the old handle's generation.)
func TestTimerAcrossReset(t *testing.T) {
	c := New()
	old := c.ScheduleAfter(time.Second, func() { t.Error("event dropped by Reset fired") })
	c.Reset()
	if old.Pending() {
		t.Fatal("Pending() = true for an event Reset dropped")
	}
	fired := false
	fresh := c.ScheduleAfter(time.Second, func() { fired = true })
	if fresh.e != old.e {
		t.Fatal("test premise: Reset should have recycled the event")
	}
	old.Cancel()
	if old.Pending() || !fresh.Pending() {
		t.Fatalf("old.Pending=%v fresh.Pending=%v after stale Cancel", old.Pending(), fresh.Pending())
	}
	run(c)
	if !fired {
		t.Fatal("a handle from before Reset cancelled an event scheduled after it")
	}
	// FIFO order at one instant survives Reset (seq only compares relatively).
	c.Reset()
	var got []int
	for i := 0; i < 5; i++ {
		c.ScheduleAt(time.Second, func() { got = append(got, i) })
	}
	run(c)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order after Reset = %v", got)
		}
	}
}
