package coldstart

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/artifact"
)

// lognormalTrace builds an arrival trace with lognormal gaps around med,
// the same generator shape the fig16 bench uses.
func lognormalTrace(seed int64, n int, med time.Duration, sigma float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]time.Duration, 0, n)
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		gap := time.Duration(float64(med) * math.Exp(rng.NormFloat64()*sigma))
		now += gap
		ts = append(ts, now)
	}
	return ts
}

// Fixed and HHP decide in the legacy shape of their Windows, before
// and after HHP's histogram has signal, and LegacyTier pins LSTH to
// that shape once its own Decide would pause in DRAM.
func TestLegacyShapeDecide(t *testing.T) {
	hhp, lsth := NewHHP(), NewLSTH(LSTHOptions{})
	now := time.Duration(0)
	check := func(p Policy) {
		t.Helper()
		pw, ka := p.Windows(now)
		if d := p.Decide(now); d != (Decision{Prewarm: pw, KeepAlive: ka, IdleTier: artifact.TierSSD}) {
			t.Fatalf("%s at %v: Decide = %+v, want the legacy shape of Windows (%v, %v)", p.Name(), now, d, pw, ka)
		}
	}
	check(Fixed{KeepAlive: time.Minute})
	check(hhp)
	for i := 0; i < 200; i++ {
		gap := time.Duration(50+i%20) * time.Second
		now += gap
		hhp.RecordIdle(gap, now)
		lsth.RecordIdle(gap, now)
	}
	if pw, _ := hhp.Windows(now); pw == 0 {
		t.Fatal("HHP still on its fallback after 200 samples")
	}
	check(hhp)
	if lsth.Decide(now).IdleTier != artifact.TierDRAM {
		t.Fatal("LSTH's own Decide does not pause in DRAM on this trace")
	}
	check(LegacyTier(lsth))
}

// Before the histograms have signal, LSTH's tier decision degrades to
// the legacy shape on the fallback keep-alive.
func TestLSTHDecideFallback(t *testing.T) {
	l := NewLSTH(LSTHOptions{})
	d := l.Decide(0)
	if d.KeepAlive != DefaultFixedKeepAlive || d.IdleTier != artifact.TierSSD || d.IdleFor != 0 {
		t.Fatalf("fallback decision %+v, want legacy shape on %v", d, DefaultFixedKeepAlive)
	}
}

// With signal, the tiered decision holds the instance fully warm for a
// shorter window than Windows' keep-alive and parks the artifact in
// DRAM through a pause stage.
func TestLSTHDecideTiers(t *testing.T) {
	l := NewLSTH(LSTHOptions{})
	now := time.Duration(0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		gap := time.Duration(30+rng.Intn(240)) * time.Second
		now += gap
		l.RecordIdle(gap, now)
	}
	_, keep := l.Windows(now)
	d := l.Decide(now)
	if d.IdleTier != artifact.TierDRAM {
		t.Fatalf("decision %+v: want DRAM pause tier", d)
	}
	if d.KeepAlive >= keep {
		t.Fatalf("tiered keep-alive %v not shorter than windows keep-alive %v", d.KeepAlive, keep)
	}
	if d.KeepAlive+d.IdleFor < keep {
		t.Fatalf("pause stage %v ends before the legacy window %v", d.KeepAlive+d.IdleFor, keep)
	}
}

// The headline property behind fig16t: on a bursty trace, LSTH with
// tiering beats plain LSTH on cold-start rate at lower
// warm-equivalent waste, and pre-loading cuts cold starts further
// without raising waste.
func TestTieringBeatsLegacyOnColdRateAndWaste(t *testing.T) {
	trace := lognormalTrace(11, 6000, 90*time.Second, 1.0)
	h := artifact.Default()
	const mb = 2048
	plain := Evaluate(LegacyTier(NewLSTH(LSTHOptions{})), h, mb, false, trace)
	tiered := Evaluate(NewLSTH(LSTHOptions{}), h, mb, false, trace)
	preload := Evaluate(NewLSTH(LSTHOptions{}), h, mb, true, trace)
	if tiered.ColdStarts >= plain.ColdStarts {
		t.Fatalf("tiering did not cut cold starts: %d vs %d", tiered.ColdStarts, plain.ColdStarts)
	}
	if tiered.Wasted() > plain.Wasted() {
		t.Fatalf("tiering raised waste: %v vs %v", tiered.Wasted(), plain.Wasted())
	}
	if preload.ColdStarts >= tiered.ColdStarts {
		t.Fatalf("pre-loading did not cut cold starts further: %d vs %d", preload.ColdStarts, tiered.ColdStarts)
	}
	if preload.Wasted() > tiered.Wasted() {
		t.Fatalf("pre-loading raised waste: %v vs %v", preload.Wasted(), tiered.Wasted())
	}
}

// Identical traces and options must yield identical tiered results.
func TestEvaluateDeterministic(t *testing.T) {
	trace := lognormalTrace(5, 3000, 2*time.Minute, 0.7)
	a := Evaluate(NewLSTH(LSTHOptions{}), artifact.Default(), 1024, true, trace)
	b := Evaluate(NewLSTH(LSTHOptions{}), artifact.Default(), 1024, true, trace)
	if a != b {
		t.Fatalf("divergent results:\n%+v\n%+v", a, b)
	}
}
