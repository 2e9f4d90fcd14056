package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tanklab/infless/internal/perf"
)

func TestZooComplete(t *testing.T) {
	want := []string{
		"Bert-v1", "VGGNet-19", "FaceNet", "LSTM-2365", "ResNet-50", "SSD",
		"DSSM-2389", "DeepSpeech", "MobileNet", "TextCNN-69", "MNIST",
	}
	t1 := Table1()
	if len(t1) != 11 {
		t.Fatalf("Table1 has %d models, want 11", len(t1))
	}
	for i, name := range want {
		if t1[i].Name != name {
			t.Errorf("Table1[%d] = %s, want %s", i, t1[i].Name, name)
		}
	}
	if Get("ResNet-20") == nil || Get("DSSM-2365") == nil {
		t.Error("auxiliary models missing from zoo")
	}
}

func TestGFLOPsMatchTable1(t *testing.T) {
	want := map[string]float64{
		"Bert-v1": 22.2, "VGGNet-19": 3.89, "FaceNet": 5.55, "LSTM-2365": 0.10,
		"ResNet-50": 1.55, "SSD": 2.02, "DSSM-2389": 0.13, "DeepSpeech": 1.60,
		"MobileNet": 0.05, "TextCNN-69": 0.53, "MNIST": 0.01,
	}
	for name, g := range want {
		m := MustGet(name)
		sum := 0.0
		for _, o := range m.ops {
			sum += o.GFLOPs
		}
		if math.Abs(sum-g) > 1e-9 {
			t.Errorf("%s: op GFLOPs sum %.6f, want %.6f", name, sum, g)
		}
		if m.GFLOPs != g {
			t.Errorf("%s: GFLOPs field %.3f, want %.3f", name, m.GFLOPs, g)
		}
	}
}

// Figure 7(a): LSTM-2365 contains 27 distinct operators, MatMul is called
// 81 times, Sum exactly once, and (Fused)MatMul dominates execution time.
func TestLSTM2365OperatorStats(t *testing.T) {
	m := MustGet("LSTM-2365")
	if got := m.DistinctClasses(); got != 27 {
		t.Errorf("distinct classes = %d, want 27", got)
	}
	counts := map[string]int{}
	for _, s := range m.CallsPerClass() {
		counts[s.Class] = s.Calls
	}
	if counts["MatMul"] != 81 {
		t.Errorf("MatMul calls = %d, want 81", counts["MatMul"])
	}
	if counts["Sum"] != 1 {
		t.Errorf("Sum calls = %d, want 1", counts["Sum"])
	}
	share := matmulShare(m)
	if share < 0.70 || share > 0.90 {
		t.Errorf("(Fused)MatMul time share = %.2f, want ~0.76", share)
	}
}

func matmulShare(m *Model) float64 {
	share := 0.0
	for _, s := range m.TimeShareByClass(4, perf.Resources{CPU: 4}) {
		if s.Class == "MatMul" || s.Class == "FusedMatMul" {
			share += s.TimeShare
		}
	}
	return share
}

// Figure 7(b): ResNet-50 contains 8 distinct operators and Conv2D takes
// more than 95% of execution time.
func TestResNet50OperatorStats(t *testing.T) {
	m := MustGet("ResNet-50")
	if got := m.DistinctClasses(); got != 8 {
		t.Errorf("distinct classes = %d, want 8", got)
	}
	stats := m.TimeShareByClass(4, perf.Resources{CPU: 4})
	if stats[0].Class != "Conv2D" {
		t.Fatalf("dominant class = %s, want Conv2D", stats[0].Class)
	}
	if stats[0].TimeShare < 0.90 {
		t.Errorf("Conv2D time share = %.3f, want > 0.90", stats[0].TimeShare)
	}
}

func TestExecTimeMonotoneInBatch(t *testing.T) {
	res := perf.Resources{CPU: 2, GPU: 1}
	for _, m := range All() {
		prev := time.Duration(0)
		for _, b := range []int{1, 2, 4, 8, 16, 32} {
			tm := m.ExecTime(b, res, ExecOptions{})
			if tm <= prev {
				t.Errorf("%s: exec time not increasing in batch (b=%d: %v <= %v)", m.Name, b, tm, prev)
			}
			prev = tm
		}
	}
}

func TestExecTimeDecreasingInResources(t *testing.T) {
	for _, m := range All() {
		small := m.ExecTime(8, perf.Resources{CPU: 1}, ExecOptions{})
		big := m.ExecTime(8, perf.Resources{CPU: 8}, ExecOptions{})
		gpu := m.ExecTime(8, perf.Resources{CPU: 1, GPU: 4}, ExecOptions{})
		if big >= small {
			t.Errorf("%s: 8 cores (%v) not faster than 1 core (%v)", m.Name, big, small)
		}
		if gpu >= small {
			t.Errorf("%s: +GPU (%v) not faster than 1 core (%v)", m.Name, gpu, small)
		}
	}
}

// Batching must improve per-item efficiency: time(b)/b decreasing.
func TestBatchAmortization(t *testing.T) {
	res := perf.Resources{GPU: 2}
	for _, m := range All() {
		t1 := float64(m.ExecTime(1, res, ExecOptions{}))
		t8 := float64(m.ExecTime(8, res, ExecOptions{})) / 8
		if t8 >= t1 {
			t.Errorf("%s: per-item time did not improve with batching (%.0f >= %.0f ns)", m.Name, t8, t1)
		}
	}
}

// Large models must benefit from GPUs far more than tiny ones
// (Observation 1/2 of the paper: accelerator affinity differs by size).
func TestGPUAffinityBySize(t *testing.T) {
	speedup := func(m *Model) float64 {
		cpu := float64(m.ExecTime(4, perf.Resources{CPU: 2}, ExecOptions{}))
		gpu := float64(m.ExecTime(4, perf.Resources{GPU: 2}, ExecOptions{}))
		return cpu / gpu
	}
	big := speedup(MustGet("Bert-v1"))
	small := speedup(MustGet("MNIST"))
	if big < 3 {
		t.Errorf("Bert-v1 GPU speedup = %.1fx, want >= 3x", big)
	}
	if small > big/2 {
		t.Errorf("MNIST speedup %.2fx should be much lower than Bert %.2fx", small, big)
	}
}

func TestExecTimeNoiseDeterministic(t *testing.T) {
	m := MustGet("ResNet-50")
	res := perf.Resources{CPU: 2, GPU: 1}
	a := m.ExecTime(4, res, DefaultExecOptions(rand.New(rand.NewSource(7))))
	b := m.ExecTime(4, res, DefaultExecOptions(rand.New(rand.NewSource(7))))
	if a != b {
		t.Errorf("same seed produced different times: %v vs %v", a, b)
	}
}

// TestExecTimeIsJitterOfBase pins the split the simulator's memo relies
// on: a noisy ExecTime is Jitter of the noise-free one, draw for draw,
// and without a generator Jitter changes nothing. The 0.5 floor is
// exercised with a noise level that reaches it.
func TestExecTimeIsJitterOfBase(t *testing.T) {
	res := perf.Resources{CPU: 2, GPU: 1}
	for _, m := range All() {
		base := m.ExecTime(4, res, DefaultExecOptions(nil))
		if base != m.ExecTime(4, res, ExecOptions{Contention: DefaultExecOptions(nil).Contention}) {
			t.Fatalf("%s: a nil Rng does not mean noise-free", m.Name)
		}
		if DefaultExecOptions(nil).Jitter(base) != base {
			t.Fatalf("%s: Jitter without a generator moved the time", m.Name)
		}
		direct := DefaultExecOptions(rand.New(rand.NewSource(3)))
		split := DefaultExecOptions(rand.New(rand.NewSource(3)))
		varied := false
		for i := 0; i < 50; i++ {
			got, want := split.Jitter(base), m.ExecTime(4, res, direct)
			if got != want {
				t.Fatalf("%s draw %d: Jitter(base) = %v, ExecTime = %v", m.Name, i, got, want)
			}
			varied = varied || got != base
		}
		if !varied {
			t.Fatalf("%s: 50 noisy executions all equal the base time", m.Name)
		}
	}
	wild := ExecOptions{NoiseSD: 10, Rng: rand.New(rand.NewSource(1))}
	floored := false
	for i := 0; i < 100; i++ {
		got := wild.Jitter(time.Second)
		if got < time.Second/2 {
			t.Fatalf("Jitter = %v, below the 0.5 floor", got)
		}
		floored = floored || got == time.Second/2
	}
	if !floored {
		t.Fatal("NoiseSD 10 never reached the floor in 100 draws")
	}
}

func TestContentionBounds(t *testing.T) {
	m := MustGet("TextCNN-69") // has parallel branches
	res := perf.Resources{CPU: 4}
	overlapped := m.ExecTime(4, res, ExecOptions{Contention: 0})
	serial := m.ExecTime(4, res, ExecOptions{Contention: 1})
	mid := m.ExecTime(4, res, ExecOptions{Contention: 0.35})
	if !(overlapped < mid && mid < serial) {
		t.Errorf("contention ordering violated: %v, %v, %v", overlapped, mid, serial)
	}
}

func TestMemoryEstimates(t *testing.T) {
	for _, m := range All() {
		if m.MemoryMB <= 0 {
			t.Errorf("%s: non-positive memory", m.Name)
		}
	}
	// Bert (391M params) must need > 1.5 GB; MNIST must be tiny.
	if b := MustGet("Bert-v1").MemoryMB; b < 1500 {
		t.Errorf("Bert-v1 memory = %d MB, want > 1500", b)
	}
	if s := MustGet("MNIST").MemoryMB; s > 200 {
		t.Errorf("MNIST memory = %d MB, want small", s)
	}
}

// Property: exec time is always positive and finite for sane configs.
func TestPropertyExecTimePositive(t *testing.T) {
	models := All()
	f := func(mi uint8, b uint8, cpu uint8, gpu uint8) bool {
		m := models[int(mi)%len(models)]
		bb := 1 + int(b)%32
		res := perf.Resources{CPU: int(cpu) % 17, GPU: int(gpu) % 21}
		d := m.ExecTime(bb, res, ExecOptions{})
		return d > 0 && d < time.Hour
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: SP-tree evaluation with zero contention is a lower bound on
// any positive contention setting.
func TestPropertyContentionMonotone(t *testing.T) {
	models := All()
	f := func(mi uint8, c1, c2 uint8) bool {
		m := models[int(mi)%len(models)]
		lo := float64(c1%100) / 100
		hi := float64(c2%100) / 100
		if lo > hi {
			lo, hi = hi, lo
		}
		res := perf.Resources{CPU: 4}
		a := m.ExecTime(4, res, ExecOptions{Contention: lo})
		b := m.ExecTime(4, res, ExecOptions{Contention: hi})
		return a <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{391e6: "391M", 72e3: "72k", 5: "5", 2e9: "2.0B"}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}
