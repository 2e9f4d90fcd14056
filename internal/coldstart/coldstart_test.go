package coldstart

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistPercentile(t *testing.T) {
	h := NewHist(time.Minute)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * 100 * time.Millisecond) // 0.1s .. 10s
	}
	// 50th percentile around 5s, 99th around 10s (1-second bins).
	if p := h.Percentile(0.5); p < 5*time.Second || p > 6*time.Second {
		t.Errorf("p50 = %v", p)
	}
	if p := h.Percentile(0.99); p < 9*time.Second || p > 10*time.Second {
		t.Errorf("p99 = %v", p)
	}
	if p := h.Percentile(0.05); p > time.Second {
		t.Errorf("p5 = %v", p)
	}
}

func TestHistEmptyAndClamp(t *testing.T) {
	h := NewHist(time.Minute)
	if h.Percentile(0.5) != 0 {
		t.Error("empty hist percentile should be 0")
	}
	h.Observe(10 * time.Hour) // beyond span: clamps to last bin
	if h.Total() != 1 {
		t.Error("observe failed")
	}
	if p := h.Percentile(1.0); p != time.Minute+BinWidth {
		t.Errorf("overflow percentile = %v", p)
	}
}

func TestHistRemove(t *testing.T) {
	h := NewHist(time.Minute)
	h.Observe(5 * time.Second)
	h.Remove(5 * time.Second)
	if h.Total() != 0 {
		t.Error("remove did not decrement")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on removing unobserved value")
		}
	}()
	h.Remove(5 * time.Second)
}

// Property: percentiles are monotone in q.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(samples []uint16, q1, q2 uint8) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHist(10 * time.Minute)
		for _, s := range samples {
			h.Observe(time.Duration(s) * 10 * time.Millisecond)
		}
		a := float64(q1%100+1) / 100
		b := float64(q2%100+1) / 100
		if a > b {
			a, b = b, a
		}
		return h.Percentile(a) <= h.Percentile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedPolicy(t *testing.T) {
	p := Fixed{KeepAlive: DefaultFixedKeepAlive}
	pre, keep := p.Windows(0)
	if pre != 0 || keep != 300*time.Second {
		t.Fatalf("fixed windows = %v, %v", pre, keep)
	}
}

func TestHHPFallbackUntilSamples(t *testing.T) {
	p := NewHHP()
	pre, keep := p.Windows(0)
	if pre != 0 || keep != DefaultFixedKeepAlive {
		t.Fatalf("HHP without samples should fall back: %v %v", pre, keep)
	}
}

func TestHHPLearnsWindows(t *testing.T) {
	p := NewHHP()
	now := time.Duration(0)
	// Idle gaps tightly clustered around 60s.
	for i := 0; i < 100; i++ {
		now += time.Minute
		p.RecordIdle(60*time.Second, now)
	}
	pre, keep := p.Windows(now)
	if pre < 55*time.Second || pre > 60*time.Second {
		t.Errorf("prewarm = %v, want just below 60s", pre)
	}
	if keep < 60*time.Second || keep > 62*time.Second {
		t.Errorf("keepalive = %v, want ~60s", keep)
	}
}

func TestHHPWindowEviction(t *testing.T) {
	p := NewHHP()
	// Old observations: 10s gaps.
	for i := 0; i < 50; i++ {
		p.RecordIdle(10*time.Second, time.Duration(i)*time.Minute)
	}
	// 5 hours later, all evicted: fallback again.
	pre, keep := p.Windows(5 * time.Hour)
	if pre != 0 || keep != DefaultFixedKeepAlive {
		t.Errorf("expected fallback after eviction, got %v %v", pre, keep)
	}
}

func TestLSTHGammaBlending(t *testing.T) {
	keepFor := func(gamma float64) time.Duration {
		p := NewLSTH(LSTHOptions{Gamma: gamma})
		now := time.Duration(0)
		// Long history: 100s gaps over many hours.
		for i := 0; i < 200; i++ {
			now += 5 * time.Minute
			p.RecordIdle(100*time.Second, now)
		}
		// Recent ~53 minutes: a dense burst of 4s gaps, enough that the
		// short histogram's p99 sits inside the burst cluster.
		for i := 0; i < 800; i++ {
			now += 4 * time.Second
			p.RecordIdle(4*time.Second, now)
		}
		_, keep := p.Windows(now)
		return keep
	}
	keepLo := keepFor(0.3) // leans short-term (4s gaps)
	keepHi := keepFor(0.7) // leans long-term (100s gaps)
	if keepLo >= keepHi {
		t.Errorf("gamma=0.3 keepalive (%v) should be shorter than gamma=0.7 (%v)", keepLo, keepHi)
	}
}

func TestLSTHInvalidGammaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLSTH(LSTHOptions{Gamma: 2})
}

func TestEvaluateFixedAllWarmWhenDense(t *testing.T) {
	p := Fixed{KeepAlive: 300 * time.Second}
	var arrivals []time.Duration
	for i := 0; i < 100; i++ {
		arrivals = append(arrivals, time.Duration(i)*10*time.Second)
	}
	r := Evaluate(p, arrivals)
	if r.ColdStarts != 1 {
		t.Errorf("cold starts = %d, want only the initial one", r.ColdStarts)
	}
	// Waste: image resident 10s before each of 99 arrivals.
	want := 99 * 10 * time.Second
	if r.WarmWasted != want {
		t.Errorf("waste = %v, want %v", r.WarmWasted, want)
	}
}

func TestEvaluateFixedColdWhenSparse(t *testing.T) {
	p := Fixed{KeepAlive: 60 * time.Second}
	var arrivals []time.Duration
	for i := 0; i < 10; i++ {
		arrivals = append(arrivals, time.Duration(i)*10*time.Minute)
	}
	r := Evaluate(p, arrivals)
	if r.ColdStarts != 10 {
		t.Errorf("cold starts = %d, want 10 (every gap exceeds keep-alive)", r.ColdStarts)
	}
	// Each expired window wastes the full 60s.
	if r.WarmWasted != 9*60*time.Second {
		t.Errorf("waste = %v", r.WarmWasted)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	r := Evaluate(Fixed{KeepAlive: time.Minute}, nil)
	if r.Invocations != 0 || r.ColdRate() != 0 || r.WastePerInvocation() != 0 {
		t.Fatalf("empty trace result: %+v", r)
	}
}

// The headline claim of Section 3.5: on traffic with both long-term
// periodicity and short-term bursts, LSTH achieves a lower cold-start
// rate than HHP while wasting no more resources.
func TestLSTHBeatsHHPOnLTPSTBTraffic(t *testing.T) {
	// Diurnal regime alternation at a period HHP's 4-hour histogram
	// cannot retain: 6 hours of dense traffic (gaps 20-40s) flush the
	// sparse-phase gap samples out of HHP's window, so every transition
	// back to the sparse phase (gaps 6-10 min) hits HHP with a streak of
	// cold starts. LSTH's 24-hour histogram remembers yesterday's sparse
	// phase (long-term periodicity) while its 1-hour histogram keeps
	// pre-warming adapted to the current regime (short-term behavior).
	rng := rand.New(rand.NewSource(3))
	var arrivals []time.Duration
	now := time.Duration(0)
	lognorm := func(median time.Duration, sigma float64) time.Duration {
		return time.Duration(float64(median) * math.Exp(rng.NormFloat64()*sigma))
	}
	for now < 72*time.Hour {
		var gap time.Duration
		if int(now/(6*time.Hour))%2 == 0 { // dense phase
			gap = lognorm(30*time.Second, 0.7)
		} else { // sparse phase
			gap = lognorm(300*time.Second, 0.7)
		}
		if rng.Intn(100) == 0 { // STB: a sudden flurry of requests
			for i := 0; i < 20; i++ {
				now += time.Duration(rng.Intn(2000)) * time.Millisecond
				arrivals = append(arrivals, now)
			}
		}
		now += gap
		arrivals = append(arrivals, now)
	}
	hhp := Evaluate(NewHHP(), arrivals)
	lsth := Evaluate(NewLSTH(LSTHOptions{}), arrivals)
	// Paper (Fig. 16): LSTH reduces cold-start rate by ~21.9% vs HHP. At
	// policy level we require a >= 10% improvement; the waste reduction
	// additionally needs full-system scale-in (Fig. 14) and is asserted
	// loosely here.
	if lsth.ColdRate() >= hhp.ColdRate()*0.90 {
		t.Errorf("LSTH cold rate %.4f should beat HHP %.4f by >=10%% on LTP+STB traffic", lsth.ColdRate(), hhp.ColdRate())
	}
	if float64(lsth.WarmWasted) > float64(hhp.WarmWasted)*1.10 {
		t.Errorf("LSTH waste %v should stay within 10%% of HHP %v", lsth.WarmWasted, hhp.WarmWasted)
	}
	t.Logf("HHP: cold=%.4f waste/inv=%v; LSTH: cold=%.4f waste/inv=%v",
		hhp.ColdRate(), hhp.WastePerInvocation(), lsth.ColdRate(), lsth.WastePerInvocation())
}

func TestEvaluateSortsInput(t *testing.T) {
	p := Fixed{KeepAlive: time.Hour}
	a := Evaluate(p, []time.Duration{2 * time.Minute, 0, time.Minute})
	b := Evaluate(Fixed{KeepAlive: time.Hour}, []time.Duration{0, time.Minute, 2 * time.Minute})
	if a != b {
		t.Fatalf("unsorted input handled differently: %+v vs %+v", a, b)
	}
}
