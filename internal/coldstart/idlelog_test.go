package coldstart

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// naiveWindow is the reference for one sliding window: a plain slice of
// the live entries, oldest first. The sums are kept as windowed keeps
// them, one add or subtract per entry in the same order, because cv() is
// compared to the bit.
type naiveWindow struct {
	span       time.Duration
	live       []idleEntry
	sum, sumSq float64
}

func (n *naiveWindow) evict(now time.Duration) {
	for len(n.live) > 0 && n.live[0].at < now-n.span {
		s := n.live[0].idle.Seconds()
		n.sum -= s
		n.sumSq -= s * s
		n.live = n.live[1:]
	}
}

func (n *naiveWindow) record(idle, now time.Duration) {
	n.evict(now)
	n.live = append(n.live, idleEntry{at: now, idle: idle})
	s := idle.Seconds()
	n.sum += s
	n.sumSq += s * s
}

// load makes w the window n describes, its histogram rebuilt from
// nothing. w belongs to a policy that never records, so its own log
// stays empty and the policy's Windows/Decide answer from this state.
func (n *naiveWindow) load(w *windowed) {
	clear(w.hist.bins)
	w.hist.total = 0
	for _, e := range n.live {
		w.hist.Observe(e.idle)
	}
	w.sum, w.sumSq = n.sum, n.sumSq
}

// gap draws the time to the next arrival: sub-second to seconds almost
// always, now and then minutes, hours (the 1 h and 4 h windows empty) or
// more than a day (every window empties).
func gap(rng *rand.Rand) time.Duration {
	switch u := rng.Float64(); {
	case u < 0.985:
		return 20*time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Second)))
	case u < 0.997:
		return time.Minute + time.Duration(rng.Int63n(int64(29*time.Minute)))
	case u < 0.9995:
		return time.Hour + time.Duration(rng.Int63n(int64(5*time.Hour)))
	default:
		return 20*time.Hour + time.Duration(rng.Int63n(int64(10*time.Hour)))
	}
}

// chunks returns the chunks of g a window may still read, and adds them
// and the free ones to seen.
func chunks(g *idleLog, seen map[*idleChunk]bool) int {
	live := 0
	for c := g.first; c != nil; c = c.next {
		seen[c] = true
		live++
	}
	for c := g.free; c != nil; c = c.next {
		seen[c] = true
	}
	return live
}

func chunkBound(population int) int {
	return (population+idleChunkLen-1)/idleChunkLen + 1
}

// The chunked log with its cursors against the plain-slice reference,
// after every RecordIdle, with every window evicting and chunks being
// recycled and refilled along the way.
func TestIdleLogMatchesNaiveWindows(t *testing.T) {
	const steps = 8000
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lsth, hhp := NewLSTH(LSTHOptions{}), NewHHP()
		refL, refH := NewLSTH(LSTHOptions{}), NewHHP()
		short := &naiveWindow{span: lsthShortWindow}
		long := &naiveWindow{span: lsthLongWindow}
		four := &naiveWindow{span: hhpWindow}
		naive := []*naiveWindow{short, long, four}
		// Each log with the reference for its longest window, the chunks it
		// has ever held and that window's largest population.
		logs := []*struct {
			name    string
			log     *idleLog
			longest *naiveWindow
			seen    map[*idleChunk]bool
			peak    int
		}{
			{name: "LSTH", log: lsth.log, longest: long, seen: map[*idleChunk]bool{}},
			{name: "HHP", log: hhp.log, longest: four, seen: map[*idleChunk]bool{}},
		}
		fallbacks, learned := 0, 0

		var now time.Duration
		for step := 0; step < steps; step++ {
			idle := gap(rng)
			now += idle
			lsth.RecordIdle(idle, now)
			hhp.RecordIdle(idle, now)
			for _, n := range naive {
				n.record(idle, now)
			}
			if rng.Intn(8) == 0 {
				// The question comes later than the arrival: eviction on
				// read. Half the time at the first instant some window's
				// oldest entry is exactly its span old, which keeps it.
				if rng.Intn(2) == 0 {
					now += gap(rng)
				} else {
					now = min(short.live[0].at+short.span, long.live[0].at+long.span, four.live[0].at+four.span)
				}
				for _, n := range naive {
					n.evict(now)
				}
			}
			short.load(refL.short)
			long.load(refL.long)
			four.load(refH.win)

			gotPre, gotKeep := lsth.Windows(now)
			wantPre, wantKeep := refL.Windows(now)
			if gotPre != wantPre || gotKeep != wantKeep {
				t.Fatalf("seed %d step %d: LSTH.Windows = %v, %v; reference %v, %v", seed, step, gotPre, gotKeep, wantPre, wantKeep)
			}
			if got, want := lsth.Decide(now), refL.Decide(now); got != want {
				t.Fatalf("seed %d step %d: LSTH.Decide = %+v; reference %+v", seed, step, got, want)
			}
			gotPre, gotKeep = hhp.Windows(now)
			wantPre, wantKeep = refH.Windows(now)
			if gotPre != wantPre || gotKeep != wantKeep {
				t.Fatalf("seed %d step %d: HHP.Windows = %v, %v; reference %v, %v", seed, step, gotPre, gotKeep, wantPre, wantKeep)
			}
			if len(four.live) >= minSamples {
				if refH.win.cv() > hhpCVLimit {
					fallbacks++
				} else {
					learned++
				}
			}
			for _, w := range []struct {
				name      string
				got, want *windowed
			}{{"short", lsth.short, refL.short}, {"long", lsth.long, refL.long}, {"hhp", hhp.win, refH.win}} {
				if w.got.hist.Total() != w.want.hist.Total() {
					t.Fatalf("seed %d step %d: %s histogram holds %d, reference %d", seed, step, w.name, w.got.hist.Total(), w.want.hist.Total())
				}
				// All 104 000 bins, where the answers above read three
				// percentiles: most of the test's time, so not every step.
				if step%50 == 0 && !slices.Equal(w.got.hist.bins, w.want.hist.bins) {
					t.Fatalf("seed %d step %d: %s histogram's bins differ from the reference's", seed, step, w.name)
				}
				if w.got.cv() != w.want.cv() {
					t.Fatalf("seed %d step %d: %s cv = %v, reference %v", seed, step, w.name, w.got.cv(), w.want.cv())
				}
			}

			// Memory follows the longest window's population, not the run.
			for _, l := range logs {
				population := len(l.longest.live)
				if live, bound := chunks(l.log, l.seen), chunkBound(population); live > bound {
					t.Fatalf("seed %d step %d: %s log holds %d chunks for %d live entries, bound %d", seed, step, l.name, live, population, bound)
				}
				l.peak = max(l.peak, population)
			}
		}
		if fallbacks == 0 || learned == 0 {
			t.Errorf("seed %d: HHP's cv test fell back %d times and passed %d times; want both", seed, fallbacks, learned)
		}
		// Every chunk ever allocated is live or free, so no more were
		// allocated than the fullest moment needed — and far fewer than the
		// stream filled: recycled chunks are the ones appended to.
		for _, l := range logs {
			if got, bound := len(l.seen), chunkBound(l.peak); got > bound || got >= steps/idleChunkLen {
				t.Errorf("seed %d: %s log allocated %d chunks; bound %d for its fullest window, %d chunks' worth recorded", seed, l.name, got, bound, steps/idleChunkLen)
			}
		}
	}
}

// Once a policy's longest window has turned over, recording an idle time
// takes its chunks from the free list.
func TestRecordIdleDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		window time.Duration
	}{{NewHHP(), hhpWindow}, {NewLSTH(LSTHOptions{}), lsthLongWindow}} {
		const every = 5 * time.Second
		var now time.Duration
		for ; now < 2*tc.window; now += every {
			tc.policy.RecordIdle(every, now)
		}
		// A thousand records a run, some four chunks: AllocsPerRun rounds
		// down, and a free-list miss is one allocation.
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < 1000; i++ {
				now += every
				tc.policy.RecordIdle(every, now)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: RecordIdle allocates %v times per 1000 records in a full window", tc.policy.Name(), allocs)
		}
	}
}
