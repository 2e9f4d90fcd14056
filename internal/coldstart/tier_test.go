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

// The legacy shim must reproduce Evaluate bit for bit: same cold count,
// same warm waste, no paused accounting.
func TestLegacyTierMatchesEvaluate(t *testing.T) {
	trace := lognormalTrace(3, 4000, 2*time.Minute, 1.0)
	for _, mk := range []func() Policy{
		func() Policy { return Fixed{KeepAlive: DefaultFixedKeepAlive} },
		func() Policy { return NewHHP() },
		func() Policy { return NewLSTH(LSTHOptions{}) },
	} {
		want := Evaluate(mk(), trace)
		got := EvaluateTiered(LegacyTier(mk()), artifact.Default(), 2048, false, trace)
		if got.ColdStarts != want.ColdStarts || got.WarmWasted != want.WarmWasted {
			t.Fatalf("%s: legacy tier replay diverged: cold %d/%d waste %v/%v",
				want.Policy, got.ColdStarts, want.ColdStarts, got.WarmWasted, want.WarmWasted)
		}
		if got.PausedResumes != 0 || got.PausedWasted != 0 || got.PreloadedStarts != 0 {
			t.Fatalf("%s: legacy tier replay produced tiered accounting: %+v", want.Policy, got)
		}
	}
}

// Tiered adapts pass-through for native TierPolicies and wraps the rest.
func TestTieredAdapter(t *testing.T) {
	l := NewLSTH(LSTHOptions{})
	if tp := Tiered(l); tp != TierPolicy(l) {
		t.Fatal("Tiered(LSTH) did not pass through the native TierPolicy")
	}
	f := Fixed{KeepAlive: time.Minute}
	tp := Tiered(f)
	if _, ok := tp.(legacyTier); !ok {
		t.Fatalf("Tiered(Fixed) = %T, want legacyTier shim", tp)
	}
	pw, ka := f.Windows(0)
	d := tp.Decide(0)
	if d.Prewarm != pw || d.KeepAlive != ka || d.IdleTier != artifact.TierSSD || d.Floor != artifact.TierSSD || d.IdleFor != 0 {
		t.Fatalf("shim decision %+v does not match Windows (%v, %v)", d, pw, ka)
	}
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
	plain := EvaluateTiered(LegacyTier(NewLSTH(LSTHOptions{})), h, mb, false, trace)
	tiered := EvaluateTiered(NewLSTH(LSTHOptions{}), h, mb, false, trace)
	preload := EvaluateTiered(NewLSTH(LSTHOptions{}), h, mb, true, trace)
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
func TestEvaluateTieredDeterministic(t *testing.T) {
	trace := lognormalTrace(5, 3000, 2*time.Minute, 0.7)
	a := EvaluateTiered(NewLSTH(LSTHOptions{}), artifact.Default(), 1024, true, trace)
	b := EvaluateTiered(NewLSTH(LSTHOptions{}), artifact.Default(), 1024, true, trace)
	if a != b {
		t.Fatalf("divergent results:\n%+v\n%+v", a, b)
	}
}
