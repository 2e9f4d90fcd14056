package workload

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestConstantTrace(t *testing.T) {
	tr := Constant(50, time.Hour, time.Minute)
	if tr.Duration() != time.Hour {
		t.Fatalf("duration = %v", tr.Duration())
	}
	if tr.Mean() != 50 || tr.Peak() != 50 {
		t.Fatalf("mean/peak = %v/%v", tr.Mean(), tr.Peak())
	}
	if tr.RateAt(30*time.Minute) != 50 {
		t.Fatal("rate lookup wrong")
	}
	// Wrap-around.
	if tr.RateAt(90*time.Minute) != 50 {
		t.Fatal("wrap-around lookup wrong")
	}
}

func TestScale(t *testing.T) {
	tr := Constant(50, time.Hour, time.Minute).Scale(2)
	if tr.Mean() != 100 {
		t.Fatalf("scaled mean = %v", tr.Mean())
	}
}

func TestPeriodicHasDiurnalShape(t *testing.T) {
	tr := Periodic(Options{Seed: 1})
	if tr.Duration() != 7*24*time.Hour {
		t.Fatalf("duration = %v", tr.Duration())
	}
	// Afternoon rate should clearly exceed pre-dawn rate on every day.
	for day := 0; day < 7; day++ {
		base := time.Duration(day) * 24 * time.Hour
		peak := tr.RateAt(base + 15*time.Hour)
		trough := tr.RateAt(base + 3*time.Hour)
		if peak < trough*2 {
			t.Errorf("day %d: peak %v not >> trough %v", day, peak, trough)
		}
	}
}

func TestBurstyHasBursts(t *testing.T) {
	base := Periodic(Options{Seed: 2})
	burst := Bursty(Options{Seed: 2})
	// Bursty peak should clearly exceed the smooth diurnal peak.
	if burst.Peak() < base.Peak()*1.5 {
		t.Errorf("bursty peak %v vs periodic peak %v: no bursts detected", burst.Peak(), base.Peak())
	}
}

func TestSporadicMostlyIdle(t *testing.T) {
	tr := Sporadic(Options{Seed: 3})
	zero := 0
	for _, r := range tr.RPS {
		if r == 0 {
			zero++
		}
	}
	frac := float64(zero) / float64(len(tr.RPS))
	if frac < 0.6 {
		t.Errorf("sporadic idle fraction = %.2f, want > 0.6", frac)
	}
	if tr.Peak() == 0 {
		t.Error("sporadic trace has no activity at all")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sporadic", "periodic", "bursty"} {
		tr, err := ByName(name, Options{Seed: 4})
		if err != nil || tr.Name != name {
			t.Errorf("ByName(%s): %v, %v", name, tr, err)
		}
	}
	if _, err := ByName("nope", Options{}); err == nil {
		t.Error("unknown trace should error")
	}
}

func TestTraceDeterministicBySeed(t *testing.T) {
	a := Bursty(Options{Seed: 7})
	b := Bursty(Options{Seed: 7})
	for i := range a.RPS {
		if a.RPS[i] != b.RPS[i] {
			t.Fatalf("same seed differs at step %d", i)
		}
	}
}

func TestStreamMatchesRate(t *testing.T) {
	tr := Constant(100, 10*time.Minute, time.Minute)
	s := NewStream(tr, 0, rand.New(rand.NewSource(9)))
	arrivals := s.Collect(0)
	// Expected 100 * 600 = 60000 arrivals; Poisson sd ~245.
	if n := len(arrivals); math.Abs(float64(n)-60000) > 1500 {
		t.Fatalf("arrivals = %d, want ~60000", n)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			t.Fatal("arrivals not ordered")
		}
	}
	if last := arrivals[len(arrivals)-1]; last >= 10*time.Minute {
		t.Fatalf("arrival beyond limit: %v", last)
	}
}

func TestStreamLimitTruncates(t *testing.T) {
	tr := Constant(10, time.Hour, time.Minute)
	s := NewStream(tr, 2*time.Minute, rand.New(rand.NewSource(1)))
	for _, at := range s.Collect(0) {
		if at >= 2*time.Minute {
			t.Fatalf("arrival %v beyond 2m limit", at)
		}
	}
}

func TestStreamWrapsBeyondTrace(t *testing.T) {
	tr := Constant(10, time.Minute, time.Minute)
	s := NewStream(tr, 5*time.Minute, rand.New(rand.NewSource(1)))
	arr := s.Collect(0)
	if len(arr) < 20 {
		t.Fatalf("wrapping stream produced only %d arrivals", len(arr))
	}
}

func TestStreamZeroRate(t *testing.T) {
	tr := &Trace{Name: "silent", Step: time.Minute, RPS: make([]float64, 10)}
	s := NewStream(tr, 0, rand.New(rand.NewSource(1)))
	if got := s.Collect(0); len(got) != 0 {
		t.Fatalf("silent trace produced %d arrivals", len(got))
	}
}

// referenceArrivals is the per-step algorithm Stream implements, written
// the plain way: a fresh slice per step, sort.Slice, everything
// materialized.
func referenceArrivals(tr *Trace, limit time.Duration, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	for step := 0; ; step++ {
		start := time.Duration(step) * tr.Step
		if start >= limit {
			return out
		}
		rate := tr.RateAt(start)
		if rate <= 0 {
			continue
		}
		xs := make([]time.Duration, poisson(rng, rate*tr.Step.Seconds()))
		for i := range xs {
			xs[i] = start + time.Duration(rng.Float64()*float64(tr.Step))
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, at := range xs {
			if at >= limit {
				return out
			}
			out = append(out, at)
		}
	}
}

// Stream's buffer reuse must not change one RNG draw or one arrival
// instant: simulations are reproducible through it.
func TestStreamMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		opts := Options{Days: 1, Seed: seed, BaseRPS: 2}
		traces := []*Trace{
			Constant(2, 6*time.Hour, time.Minute), Periodic(opts), Bursty(opts), Sporadic(opts),
			// Thousands of arrivals a step, from poisson's normal branch.
			Constant(60, 2*time.Hour, time.Minute),
			{Name: "hourly", Step: time.Hour, RPS: []float64{2, 1}},
			// A 30-day step of ~10k arrivals: off·n passes 2⁶⁴.
			{Name: "monthly", Step: 30 * 24 * time.Hour, RPS: []float64{0.004}},
		}
		for _, tr := range traces {
			// Past the trace's end (it wraps) and inside a step (the cut
			// falls among that step's arrivals).
			limit := tr.Duration() + 90*time.Minute + 17*time.Second
			got := NewStream(tr, limit, rand.New(rand.NewSource(seed))).Collect(0)
			want := referenceArrivals(tr, limit, rand.New(rand.NewSource(seed)))
			if len(want) < 1000 {
				t.Fatalf("%s seed %d: reference has only %d arrivals", tr.Name, seed, len(want))
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s seed %d: stream (%d arrivals) differs from the reference (%d)", tr.Name, seed, len(got), len(want))
			}
		}
	}
}

// binSort must order a step's offsets exactly as a comparison sort does,
// at the edges of [0, step] and with buffers reused from a larger call.
func TestBinSortMatchesSort(t *testing.T) {
	var dst []time.Duration
	var counts []int
	check := func(name string, offs []time.Duration, start, step time.Duration) {
		want := make([]time.Duration, len(offs))
		for i, off := range offs {
			want[i] = start + off
		}
		slices.Sort(want)
		dst, counts = binSort(dst, counts, offs, start, step)
		if !slices.Equal(dst, want) {
			t.Fatalf("%s: binSort of %d offsets differs from slices.Sort", name, len(offs))
		}
	}
	rng := rand.New(rand.NewSource(1))
	uniform := func(n int, step time.Duration) []time.Duration {
		offs := make([]time.Duration, n)
		for i := range offs {
			offs[i] = time.Duration(rng.Float64() * float64(step))
		}
		return offs
	}
	same := func(n int, off time.Duration) []time.Duration {
		offs := make([]time.Duration, n)
		for i := range offs {
			offs[i] = off
		}
		return offs
	}
	const step = time.Minute
	check("all equal", same(3000, step/3), time.Hour, step)
	check("all at 0", same(3000, 0), 0, step)
	check("all at step-1", same(3000, step-1), time.Hour, step)
	atStep := uniform(3000, step)
	atStep[0], atStep[1500], atStep[2999] = step, step, step
	check("some at step", atStep, 0, step)
	check("n = 1", uniform(1, step), time.Minute, step)
	check("more offsets than nanoseconds", uniform(500, 64), 0, 64)
	wide := uniform(1000, 1<<62)
	wide[7] = 1 << 62
	check("off·n past 2⁶⁴", wide, 0, 1<<62)
	for i := 0; i < 1000; i++ {
		n := 1 + rng.Intn(4000)
		check("random size", uniform(n, step), time.Duration(i)*step, step)
	}
}

// A bin must follow the offset — non-decreasing, 0 at 0, and (with fewer
// offsets than nanoseconds in the step) the last at step and within one
// of off·n/step — also where off·n overflows 64 bits: otherwise binSort
// still sorts, but by insertion alone.
func TestBinnerFollowsOffset(t *testing.T) {
	for _, c := range []struct {
		n    int
		step time.Duration
	}{
		{1, time.Minute}, {1000, time.Minute}, {10_000_000, time.Hour}, {1000, 1 << 62}, {500, 64},
	} {
		bins := newBinner(c.n, c.step)
		const k = 100_000
		prev := 0
		for i := 0; i <= k; i++ {
			off := time.Duration(float64(c.step) * float64(i) / k)
			if i == k {
				off = c.step
			}
			b := bins.of(off)
			exact := float64(off) * float64(c.n) / float64(c.step)
			spread := c.n < int(c.step)
			if b < prev || b > c.n-1 || (i == 0 && b != 0) || (spread && i == k && b != c.n-1) ||
				(spread && math.Abs(float64(b)-min(exact, float64(c.n-1))) > 1) {
				t.Fatalf("n %d, step %v: offset %v in bin %d (previous %d, off·n/step %.1f)", c.n, c.step, off, b, prev, exact)
			}
			prev = b
		}
	}
}

func TestStreamNextDoesNotAllocate(t *testing.T) {
	s := NewStream(Constant(200, time.Hour, time.Second), 0, rand.New(rand.NewSource(3)))
	s.Collect(100000) // the buffer has held some 500 steps' arrivals
	// A thousand arrivals a run, some five steps: AllocsPerRun rounds
	// down, and a step's allocations are few.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			s.Next()
		}
	})
	if allocs != 0 {
		t.Errorf("Stream.Next allocates %v times per 1000 arrivals", allocs)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mean := range []float64{0.5, 5, 50, 500} {
		sum := 0.0
		n := 2000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > mean*0.1+0.5 {
			t.Errorf("poisson(%v) sample mean = %v", mean, got)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

// Property: RateAt never panics and is non-negative for any time,
// including far beyond the trace and negative offsets from wrapping.
func TestPropertyRateAtTotal(t *testing.T) {
	tr := Bursty(Options{Seed: 11, Days: 1})
	f := func(ns int64) bool {
		r := tr.RateAt(time.Duration(ns))
		return r >= 0 && !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
