// Package workload synthesizes request traffic for the INFless
// evaluation. The paper drives its experiments with constant loads plus
// dynamic invocations replayed from the Azure Functions production trace
// (Shahrad et al., ATC'20), highlighting three representative patterns
// (Figure 10): sporadic, periodic and bursty. Real traffic combines
// long-term periodicity (LTP, diurnal cycles) with short-term bursts
// (STB, sudden rate changes) — the two features LSTH exploits (Figure 9).
//
// A Trace is a piecewise-constant RPS series; arrivals are drawn from the
// corresponding non-homogeneous Poisson process.
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// Trace is a piecewise-constant request-rate series: RPS[i] holds during
// [i*Step, (i+1)*Step).
type Trace struct {
	Name string
	Step time.Duration
	RPS  []float64
}

// Duration returns the total length of the trace.
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.RPS)) * t.Step
}

// RateAt returns the request rate at virtual time at. Times beyond the
// trace wrap around, so traces can drive arbitrarily long simulations.
func (t *Trace) RateAt(at time.Duration) float64 {
	if len(t.RPS) == 0 {
		return 0
	}
	i := int(at/t.Step) % len(t.RPS)
	if i < 0 {
		i += len(t.RPS)
	}
	return t.RPS[i]
}

// Mean returns the average rate over the trace.
func (t *Trace) Mean() float64 {
	if len(t.RPS) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range t.RPS {
		s += r
	}
	return s / float64(len(t.RPS))
}

// Peak returns the maximum rate in the trace.
func (t *Trace) Peak() float64 {
	p := 0.0
	for _, r := range t.RPS {
		if r > p {
			p = r
		}
	}
	return p
}

// Scale returns a copy of the trace with every rate multiplied by f.
func (t *Trace) Scale(f float64) *Trace {
	out := &Trace{Name: t.Name, Step: t.Step, RPS: make([]float64, len(t.RPS))}
	for i, r := range t.RPS {
		out.RPS[i] = r * f
	}
	return out
}

// Constant returns a flat trace at rps for the given duration.
func Constant(rps float64, dur, step time.Duration) *Trace {
	if step <= 0 {
		step = time.Minute
	}
	n := int(dur / step)
	if n < 1 {
		n = 1
	}
	t := &Trace{Name: fmt.Sprintf("constant(%.0f)", rps), Step: step, RPS: make([]float64, n)}
	for i := range t.RPS {
		t.RPS[i] = rps
	}
	return t
}

// Options configure synthetic trace generation. Zero values take the
// paper's setup: 7 days at 1-minute resolution.
type Options struct {
	Days    int
	Step    time.Duration
	Seed    int64
	BaseRPS float64 // mean daytime rate (default 100)
}

func (o *Options) defaults() {
	if o.Days == 0 {
		o.Days = 7
	}
	if o.Step == 0 {
		o.Step = time.Minute
	}
	if o.BaseRPS == 0 {
		o.BaseRPS = 100
	}
}

// diurnal returns the long-term periodic modulation at a point in the
// day: a smooth day/night cycle with daytime peak ~1.0 and a night trough.
func diurnal(at time.Duration) float64 {
	hours := math.Mod(at.Hours(), 24)
	// Peak mid-afternoon (15:00), trough pre-dawn (03:00).
	phase := 2 * math.Pi * (hours - 9) / 24
	return 0.55 + 0.45*math.Sin(phase)
}

// Periodic synthesizes a trace with long-term periodicity and mild noise
// (Figure 10, middle): a classic diurnal web-service load.
func Periodic(opts Options) *Trace {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	n := int((time.Duration(opts.Days) * 24 * time.Hour) / opts.Step)
	t := &Trace{Name: "periodic", Step: opts.Step, RPS: make([]float64, n)}
	for i := range t.RPS {
		at := time.Duration(i) * opts.Step
		noise := 1 + rng.NormFloat64()*0.06
		r := opts.BaseRPS * diurnal(at) * noise
		if r < 0 {
			r = 0
		}
		t.RPS[i] = r
	}
	return t
}

// Bursty synthesizes a diurnal trace punctuated by short-term bursts
// (Figure 10, right): sudden rate surges (2-6x) lasting a few minutes,
// plus occasional sudden dips, on top of the periodic baseline.
func Bursty(opts Options) *Trace {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	base := Periodic(Options{Days: opts.Days, Step: opts.Step, Seed: opts.Seed + 1, BaseRPS: opts.BaseRPS})
	t := &Trace{Name: "bursty", Step: opts.Step, RPS: base.RPS}
	i := 0
	for i < len(t.RPS) {
		// Episodes start on average every ~45 minutes of trace time.
		gap := 1 + rng.Intn(int(90*time.Minute/opts.Step))
		i += gap
		if i >= len(t.RPS) {
			break
		}
		dur := 1 + rng.Intn(int(8*time.Minute/opts.Step)+1)
		var mult float64
		if rng.Intn(4) == 0 {
			mult = 0.15 + rng.Float64()*0.3 // sudden dip
		} else {
			mult = 2 + rng.Float64()*4 // surge
		}
		for j := i; j < i+dur && j < len(t.RPS); j++ {
			t.RPS[j] *= mult
		}
		i += dur
	}
	return t
}

// Sporadic synthesizes infrequent, irregular activity (Figure 10, left):
// the function is idle most of the time and receives short active windows
// at random moments — the pattern that maximizes cold starts.
func Sporadic(opts Options) *Trace {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	n := int((time.Duration(opts.Days) * 24 * time.Hour) / opts.Step)
	t := &Trace{Name: "sporadic", Step: opts.Step, RPS: make([]float64, n)}
	i := 0
	for i < n {
		// Idle stretch: 20 minutes to ~4 hours.
		idle := int(20*time.Minute/opts.Step) + rng.Intn(int(4*time.Hour/opts.Step))
		i += idle
		if i >= n {
			break
		}
		// Active window: 2-20 minutes at a modest rate.
		dur := int(2*time.Minute/opts.Step) + rng.Intn(int(18*time.Minute/opts.Step)+1)
		level := opts.BaseRPS * (0.1 + 0.4*rng.Float64())
		for j := i; j < i+dur && j < n; j++ {
			t.RPS[j] = level * (0.7 + 0.6*rng.Float64())
		}
		i += dur
	}
	return t
}

// ByName returns the named synthetic trace generator result; recognized
// names are "sporadic", "periodic" and "bursty".
func ByName(name string, opts Options) (*Trace, error) {
	switch name {
	case "sporadic":
		return Sporadic(opts), nil
	case "periodic":
		return Periodic(opts), nil
	case "bursty":
		return Bursty(opts), nil
	}
	return nil, fmt.Errorf("workload: unknown trace %q", name)
}

// Stream draws arrivals from the non-homogeneous Poisson process defined
// by a trace, one step at a time, without materializing the whole series.
type Stream struct {
	trace *Trace
	rng   *rand.Rand
	limit time.Duration

	step    int
	pending []time.Duration // the current step's arrivals, sorted; reused step to step
	next    int             // index in pending of the arrival Next returns
	offs    []time.Duration // the current step's draws, in draw order; reused
	counts  []int           // binSort's bins; reused
}

// NewStream creates an arrival stream over the trace, truncated at limit
// (zero limit means the trace's own duration; the trace wraps if limit is
// longer).
func NewStream(t *Trace, limit time.Duration, rng *rand.Rand) *Stream {
	if limit == 0 {
		limit = t.Duration()
	}
	return &Stream{trace: t, rng: rng, limit: limit}
}

// Next returns the next arrival instant. ok is false when the stream is
// exhausted. Arrivals are strictly ordered.
func (s *Stream) Next() (at time.Duration, ok bool) {
	for {
		if s.next < len(s.pending) {
			at = s.pending[s.next]
			s.next++
			if at >= s.limit {
				return 0, false
			}
			return at, true
		}
		stepStart := time.Duration(s.step) * s.trace.Step
		if stepStart >= s.limit {
			return 0, false
		}
		rate := s.trace.RateAt(stepStart)
		s.step++
		if rate <= 0 {
			continue
		}
		// Poisson count for this step, arrivals uniform within the step.
		mean := rate * s.trace.Step.Seconds()
		n := poisson(s.rng, mean)
		if n == 0 {
			continue
		}
		s.offs = s.offs[:0]
		for i := 0; i < n; i++ {
			s.offs = append(s.offs, time.Duration(s.rng.Float64()*float64(s.trace.Step)))
		}
		s.pending, s.counts = binSort(s.pending, s.counts, s.offs, stepStart, s.trace.Step)
		s.next = 0
	}
}

// binSort writes start+off for every off in offs to dst in ascending
// order, and returns dst and counts, whose arrays it reuses. The offsets
// lie in [0, step] — Float64()·step can round up to step — uniformly, so
// a counting sort into n = len(offs) bins by a non-decreasing function of
// the offset (binner) leaves O(1) expected offsets a bin, and the closing
// insertion-sort pass, which alone would sort anything, has O(1) expected
// work an element. Equal durations are indistinguishable: the result is
// the one any sort gives.
func binSort(dst []time.Duration, counts []int, offs []time.Duration, start, step time.Duration) ([]time.Duration, []int) {
	n := len(offs)
	bins := newBinner(n, step)
	counts = slices.Grow(counts[:0], n)[:n]
	clear(counts)
	for _, off := range offs {
		counts[bins.of(off)]++
	}
	first := 0
	for b, c := range counts {
		counts[b] = first
		first += c
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for _, off := range offs {
		b := bins.of(off)
		dst[counts[b]] = start + off
		counts[b]++
	}
	for i := 1; i < n; i++ {
		x, j := dst[i], i
		for ; j > 0 && dst[j-1] > x; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = x
	}
	return dst, counts
}

// binner maps an offset in [0, step] to one of n bins, ⌊off·m / 2⁶⁴⌋
// clamped to n−1 with m = ⌊n·2⁶⁴ / step⌋ — about ⌊off·n / step⌋ and
// non-decreasing in off. The product is 128 bits wide: off·n passes 2⁶⁴
// for an hour-long step of 5 M arrivals, and a wrapped bin would scatter
// the offsets and leave the insertion sort quadratic work.
type binner struct {
	m, last uint64
}

func newBinner(n int, step time.Duration) binner {
	m := uint64(math.MaxUint64) // ⌊n·2⁶⁴ / step⌋ saturates when n ≥ step
	if uint64(n) < uint64(step) {
		m, _ = bits.Div64(uint64(n), 0, uint64(step))
	}
	return binner{m: m, last: uint64(n - 1)}
}

func (b binner) of(off time.Duration) int {
	hi, _ := bits.Mul64(uint64(off), b.m)
	return int(min(hi, b.last))
}

// Collect materializes up to max arrivals (0 = all) into a slice.
func (s *Stream) Collect(max int) []time.Duration {
	var out []time.Duration
	for {
		at, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, at)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// poisson samples a Poisson variate. Knuth's method for small means, a
// normal approximation for large ones (step means can reach thousands).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
