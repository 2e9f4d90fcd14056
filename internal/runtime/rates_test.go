package runtime

import (
	"fmt"
	"testing"
	"time"
)

func TestRateStripesMatchesDirectEstimator(t *testing.T) {
	rs := NewRateStripes(10 * time.Second)
	direct := NewRateEstimator(10 * time.Second)
	for i := 0; i < 500; i++ {
		now := time.Duration(i) * 17 * time.Millisecond
		rs.Observe("f", now)
		direct.Observe(now)
	}
	now := 9 * time.Second
	if got, want := rs.Get("f").Estimate(now), direct.Estimate(now); got != want {
		t.Fatalf("striped estimate %v != direct %v", got, want)
	}
	// Demand mirrors max(Estimate, Burst) with the 1-RPS floor.
	wantD := direct.Estimate(now)
	if b := direct.Burst(now); b > wantD {
		wantD = b
	}
	if wantD < 1 {
		wantD = 1
	}
	if got := rs.Demand("f", now); got != wantD {
		t.Fatalf("Demand %v != %v", got, wantD)
	}
}

func TestRateStripesUnknownAndRemoved(t *testing.T) {
	rs := NewRateStripes(5 * time.Second)
	if got := rs.Demand("ghost", time.Second); got != 1 {
		t.Fatalf("unknown function demand = %v, want floor 1", got)
	}
	rs.Observe("f", time.Second)
	rs.Remove("f")
	if got := rs.Get("f").Estimate(time.Second); got != 0 {
		t.Fatalf("removed function estimate = %v, want 0", got)
	}
}

func TestRateStripesGetIsStable(t *testing.T) {
	rs := NewRateStripes(5 * time.Second)
	a, b := rs.Get("f"), rs.Get("f")
	if a != b {
		t.Fatal("Get returned distinct estimators for the same name")
	}
	a.Observe(time.Second)
	if got := rs.Demand("f", time.Second); got <= 1 {
		t.Fatal("observation through Get pointer invisible to striped read")
	}
}

func TestPlaneRingAggregatesAcrossFunctions(t *testing.T) {
	rs := NewRateStripes(10 * time.Second)
	// 100 functions x 10 arrivals inside one window second.
	for fn := 0; fn < 100; fn++ {
		name := fmt.Sprintf("fn-%d", fn)
		for i := 0; i < 10; i++ {
			rs.Observe(name, 2*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	// All arrivals landed in second 2; the elapsed span is one second.
	if got := rs.PlaneRate(2 * time.Second); got != 1000 {
		t.Fatalf("PlaneRate = %v, want 1000", got)
	}
}

func TestPlaneRingExpiresOldBuckets(t *testing.T) {
	rs := NewRateStripes(3 * time.Second)
	rs.PlaneObserve(1 * time.Second)
	rs.PlaneObserve(1 * time.Second)
	if got := rs.PlaneRate(10 * time.Second); got != 0 {
		t.Fatalf("PlaneRate after idle gap = %v, want 0", got)
	}
}
