package batching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// The paper's worked example: SLO 200ms, t_exec 50ms, b = 4 gives an
// admissible window of [28, 80] RPS.
func TestRateBoundsPaperExample(t *testing.T) {
	b, err := RateBounds(50*time.Millisecond, 200*time.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.RLow != 28 || b.RUp != 80 {
		t.Fatalf("bounds = [%v, %v], want [28, 80]", b.RLow, b.RUp)
	}
}

func TestRateBoundsBatchOne(t *testing.T) {
	b, err := RateBounds(50*time.Millisecond, 200*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.RLow != 0 {
		t.Errorf("b=1 r_low = %v, want 0 (no batch queuing)", b.RLow)
	}
	if b.RUp != 20 {
		t.Errorf("b=1 r_up = %v, want 20", b.RUp)
	}
	// b=1 only requires t_exec <= t_slo.
	if _, err := RateBounds(150*time.Millisecond, 200*time.Millisecond, 1); err != nil {
		t.Errorf("b=1 with texec=150ms should be feasible: %v", err)
	}
	if _, err := RateBounds(250*time.Millisecond, 200*time.Millisecond, 1); err == nil {
		t.Error("b=1 with texec > tslo should be infeasible")
	}
}

func TestRateBoundsInfeasible(t *testing.T) {
	if _, err := RateBounds(150*time.Millisecond, 200*time.Millisecond, 4); err == nil {
		t.Error("texec > tslo/2 with b > 1 must be infeasible")
	}
	if _, err := RateBounds(0, time.Second, 4); err == nil {
		t.Error("zero texec must error")
	}
	if _, err := RateBounds(time.Millisecond, time.Second, 0); err == nil {
		t.Error("batch 0 must error")
	}
}

// Property: whenever RateBounds succeeds, r_low <= r_up.
func TestPropertyBoundsOrdered(t *testing.T) {
	f := func(texecMs, tsloMs uint16, b uint8) bool {
		texec := time.Duration(texecMs%500+1) * time.Millisecond
		tslo := time.Duration(tsloMs%1000+1) * time.Millisecond
		bb := 1 + int(b)%32
		bounds, err := RateBounds(texec, tslo, bb)
		if err != nil {
			return true
		}
		return bounds.RLow <= bounds.RUp && bounds.RUp > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func mkBounds(n int) []Bounds {
	out := make([]Bounds, n)
	for i := range out {
		out[i] = Bounds{RLow: 28, RUp: 80}
	}
	return out
}

func TestAllocateCaseI(t *testing.T) {
	p := AllocateRates(mkBounds(2), 200, DefaultAlpha) // Rmax = 160
	if p.ResidualRPS != 40 {
		t.Fatalf("residual = %v, want 40", p.ResidualRPS)
	}
	for i, r := range p.Rates {
		if r != 80 {
			t.Errorf("rate[%d] = %v, want r_up 80", i, r)
		}
	}
	if len(p.Release) != 0 {
		t.Errorf("unexpected release %v", p.Release)
	}
}

func TestAllocateCaseII(t *testing.T) {
	// Rmax=160, Rmin=56, floor = 0.8*56 + 0.2*160 = 76.8.
	p := AllocateRates(mkBounds(2), 120, DefaultAlpha)
	if p.ResidualRPS != 0 || len(p.Release) != 0 {
		t.Fatalf("case ii should not scale: %+v", p)
	}
	sum := p.Rates[0] + p.Rates[1]
	if math.Abs(sum-120) > 1e-9 {
		t.Fatalf("allocated sum = %v, want 120", sum)
	}
	// Interpolation endpoints.
	pMax := AllocateRates(mkBounds(2), 160, DefaultAlpha)
	if pMax.Rates[0] != 80 {
		t.Errorf("at R=Rmax rate = %v, want 80", pMax.Rates[0])
	}
}

func TestAllocateCaseIIIRelease(t *testing.T) {
	// 4 instances, Rmax=320, Rmin=112, floor=0.8*112+0.2*320=153.6.
	// R=60 requires shedding instances until the floor <= 60:
	// 2 instances: floor 76.8 > 60; 1 instance: floor 38.4 <= 60.
	p := AllocateRates(mkBounds(4), 60, DefaultAlpha)
	if len(p.Release) != 3 {
		t.Fatalf("released %d instances, want 3 (%+v)", len(p.Release), p)
	}
	// Remaining instance absorbs everything it can.
	if p.Rates[0] != 60 {
		t.Fatalf("survivor rate = %v, want 60", p.Rates[0])
	}
	for _, i := range p.Release {
		if p.Rates[i] != 0 {
			t.Errorf("released instance %d has rate %v", i, p.Rates[i])
		}
	}
}

func TestAllocateZeroLoadReleasesAll(t *testing.T) {
	p := AllocateRates(mkBounds(3), 0, DefaultAlpha)
	if len(p.Release) != 3 {
		t.Fatalf("released %d, want all 3", len(p.Release))
	}
}

func TestAllocateNoInstances(t *testing.T) {
	p := AllocateRates(nil, 50, DefaultAlpha)
	if p.ResidualRPS != 50 {
		t.Fatalf("residual = %v, want full 50", p.ResidualRPS)
	}
}

func TestAllocateDegenerateWindow(t *testing.T) {
	bounds := []Bounds{{RLow: 80, RUp: 80}, {RLow: 80, RUp: 80}}
	p := AllocateRates(bounds, 120, 0.8)
	sum := p.Rates[0] + p.Rates[1]
	if math.Abs(sum-120) > 1e-9 {
		t.Fatalf("degenerate split sum = %v", sum)
	}
}

// Property: allocation never exceeds r_up per instance, never reports
// residual while capacity remains, and conserves workload.
func TestPropertyAllocateConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(6)
		bounds := make([]Bounds, n)
		for i := range bounds {
			up := float64(10 + rng.Intn(200))
			low := up * (0.2 + rng.Float64()*0.5)
			bounds[i] = Bounds{RLow: low, RUp: up}
		}
		r := rng.Float64() * 600
		p := AllocateRates(bounds, r, DefaultAlpha)
		released := map[int]bool{}
		for _, i := range p.Release {
			released[i] = true
		}
		var sum float64
		for i, rate := range p.Rates {
			if rate < -1e-9 {
				t.Fatalf("negative rate %v", rate)
			}
			if rate > bounds[i].RUp+1e-9 {
				t.Fatalf("rate %v exceeds r_up %v", rate, bounds[i].RUp)
			}
			if released[i] && rate != 0 {
				t.Fatalf("released instance %d has rate %v", i, rate)
			}
			sum += rate
		}
		if p.ResidualRPS > 0 {
			// When scaling out, all survivors must be saturated.
			for i, rate := range p.Rates {
				if !released[i] && math.Abs(rate-bounds[i].RUp) > 1e-9 {
					t.Fatalf("residual %v with unsaturated instance %d (%v < %v)", p.ResidualRPS, i, rate, bounds[i].RUp)
				}
			}
		}
		if sum+p.ResidualRPS > r+1e-6 {
			t.Fatalf("allocated %v + residual %v exceeds offered %v", sum, p.ResidualRPS, r)
		}
	}
}

func TestQueueFillAndDrain(t *testing.T) {
	q := NewQueue[int](4, 100*time.Millisecond)
	for i := 0; i < 3; i++ {
		acc, full := q.Add(i, time.Duration(i)*time.Millisecond)
		if !acc || full {
			t.Fatalf("add %d: accepted=%v full=%v", i, acc, full)
		}
	}
	acc, full := q.Add(3, 3*time.Millisecond)
	if !acc || !full {
		t.Fatalf("4th add should fill the batch (accepted=%v full=%v)", acc, full)
	}
	batch, oldest, ok := q.Drain(3 * time.Millisecond)
	if !ok || len(batch) != 4 || oldest != 0 {
		t.Fatalf("drain = %v, oldest %v, ok %v", batch, oldest, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after drain")
	}
}

func TestQueueDeadline(t *testing.T) {
	q := NewQueue[int](4, 100*time.Millisecond)
	if _, ok := q.Deadline(); ok {
		t.Fatal("empty queue should have no deadline")
	}
	q.Add(1, 20*time.Millisecond)
	d, ok := q.Deadline()
	if !ok || d != 120*time.Millisecond {
		t.Fatalf("deadline = %v, want 120ms", d)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	q := NewQueue[int](2, time.Second)
	for i := 0; i < 4; i++ {
		if acc, _ := q.Add(i, 0); !acc {
			t.Fatalf("add %d should fit (capacity 2B)", i)
		}
	}
	if acc, _ := q.Add(4, 0); acc {
		t.Fatal("5th add should be dropped")
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d after the drop, want 4", q.Len())
	}
}

func TestQueuePartialDrain(t *testing.T) {
	q := NewQueue[int](4, time.Second)
	q.Add(1, 10*time.Millisecond)
	q.Add(2, 20*time.Millisecond)
	batch, oldest, ok := q.Drain(500 * time.Millisecond)
	if !ok || len(batch) != 2 || oldest != 10*time.Millisecond {
		t.Fatalf("partial drain = %v oldest %v", batch, oldest)
	}
}

func TestQueueInvalidBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueue[int](0, time.Second)
}

func TestAllocateInvalidAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AllocateRates(mkBounds(1), 10, 1.5)
}
