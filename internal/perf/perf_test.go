package perf

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 4, GPU: 2}
	b := Resources{CPU: 1, GPU: 1}
	if got := a.Add(b); got != (Resources{CPU: 5, GPU: 3}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Resources{CPU: 3, GPU: 1}) {
		t.Errorf("Sub = %v", got)
	}
	if !a.Fits(b) || b.Fits(a) {
		t.Error("Fits wrong")
	}
	if a.IsZero() || !(Resources{}).IsZero() {
		t.Error("IsZero wrong")
	}
	if !a.NonNegative() || (Resources{CPU: -1}).NonNegative() {
		t.Error("NonNegative wrong")
	}
}

func TestWeighted(t *testing.T) {
	r := Resources{CPU: 16, GPU: 20}
	want := Beta*16 + 20
	if got := r.Weighted(); got != want {
		t.Errorf("Weighted = %f, want %f", got, want)
	}
	if ServerCapacity() != (Resources{CPU: ServerCPUCores, GPU: ServerGPUUnits}) {
		t.Error("server capacity mismatch")
	}
}

func TestClassPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Class("NoSuchOp")
}

func TestOpTimeShape(t *testing.T) {
	c := Class("Conv2D")
	// More resources => faster.
	t1 := c.OpTime(1.0, 1, 4, Resources{CPU: 1})
	t2 := c.OpTime(1.0, 1, 4, Resources{CPU: 8})
	if t2 >= t1 {
		t.Errorf("8 cores (%v) not faster than 1 (%v)", t2, t1)
	}
	// Amdahl: speedup from 1->16 cores is sub-linear.
	t16 := c.OpTime(1.0, 1, 4, Resources{CPU: 16})
	speedup := float64(t1) / float64(t16)
	if speedup >= 16 {
		t.Errorf("speedup %.1f x should be sub-linear", speedup)
	}
	if speedup < 4 {
		t.Errorf("speedup %.1f x too low for a 98%%-parallel op", speedup)
	}
}

func TestOpTimeBatchAmortizesLaunch(t *testing.T) {
	c := Class("MatMul")
	res := Resources{GPU: 4}
	perItem1 := float64(c.OpTime(0.01, 1, 1, res))
	perItem32 := float64(c.OpTime(0.01, 1, 32, res)) / 32
	if perItem32 >= perItem1 {
		t.Errorf("batching did not amortize launch: %.0f >= %.0f", perItem32, perItem1)
	}
}

func TestOpTimeZeroResourceFallback(t *testing.T) {
	c := Class("MatMul")
	d := c.OpTime(1.0, 1, 1, Resources{})
	if d <= 0 || d > time.Minute {
		t.Errorf("degenerate config time = %v", d)
	}
}

func TestGPULaunchOverheadDominatesTinyOps(t *testing.T) {
	c := Class("MatMul")
	tiny := 0.0001 // 0.1 MFLOP
	cpu := c.OpTime(tiny, 1, 1, Resources{CPU: 2})
	gpu := c.OpTime(tiny, 1, 1, Resources{GPU: 2})
	if gpu <= cpu {
		t.Errorf("tiny op should be faster on CPU (cpu=%v gpu=%v)", cpu, gpu)
	}
}

func TestLambdaMemToVCPU(t *testing.T) {
	if v := LambdaMemToVCPU(1769); v != 1.0 {
		t.Errorf("1769 MB = %f vCPU, want 1", v)
	}
	if v := LambdaMemToVCPU(128); v >= 0.1 {
		t.Errorf("128 MB = %f vCPU, want < 0.1", v)
	}
	if v := LambdaMemToVCPU(100000); v != 6.0 {
		t.Errorf("cap broken: %f", v)
	}
}

func TestCatalogSane(t *testing.T) {
	for name, c := range Catalog {
		if c.Name != name {
			t.Errorf("%s: Name field %q mismatch", name, c.Name)
		}
		if c.CPUEff <= 0 || c.CPUEff > 1 || c.GPUEff <= 0 || c.GPUEff > 1 {
			t.Errorf("%s: efficiency out of (0,1]", name)
		}
		if c.ParallelFrac <= 0 || c.ParallelFrac >= 1 {
			t.Errorf("%s: parallel fraction out of (0,1)", name)
		}
		if c.LaunchGPU <= c.LaunchCPU {
			t.Errorf("%s: GPU launch (%v) should exceed CPU launch (%v)", name, c.LaunchGPU, c.LaunchCPU)
		}
	}
}

// Property: OpTime is monotone non-increasing in each resource dimension
// and monotone increasing in batch.
func TestPropertyOpTimeMonotone(t *testing.T) {
	classes := make([]*OpClass, 0, len(Catalog))
	for _, c := range Catalog {
		classes = append(classes, c)
	}
	f := func(ci uint8, b uint8, cpu, gpu uint8) bool {
		c := classes[int(ci)%len(classes)]
		bb := 1 + int(b)%31
		r := Resources{CPU: 1 + int(cpu)%15, GPU: int(gpu) % 20}
		t0 := c.OpTime(0.5, 1, bb, r)
		tMoreCPU := c.OpTime(0.5, 1, bb, Resources{CPU: r.CPU + 1, GPU: r.GPU})
		tMoreBatch := c.OpTime(0.5, 1, bb+1, r)
		return tMoreCPU <= t0 && tMoreBatch >= t0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
