package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN, not a number that looks measured")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = (%v,%v), want (2.75,8.25)", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if q1, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three values = (%v,%v), want (1,4)", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Fatalf("quartiles of one value = (%v,%v), want (7,7)", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	thr := metricSpec{Name: "throughput_ops_s", Better: "higher", Bound: 0.25}
	lat := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.2}
	parent := []float64{100, 104, 98, 101, 99, 103, 97, 102, 100, 101}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}

	cases := []struct {
		name    string
		m       metricSpec
		change  []float64
		verdict string
		wins    int
		losses  int
		over    bool
	}{
		{"doubling a higher-is-better metric is a gain", thr, scale(2), verdictGain, 10, 0, false},
		{"doubling a lower-is-better metric is a loss past the bound", lat, scale(2), verdictLoss, 0, 10, true},
		{"halving a lower-is-better metric is a gain", lat, scale(0.5), verdictGain, 10, 0, false},
		{"the same runs are identical", thr, scale(1), verdictIdentical, 0, 0, false},
		// Every pair won, but by less than the parent's own spread (IQR 4.25).
		{"a consistent edge inside the parent's spread is unresolved", thr, scale(1.01), verdictUnresolved, 10, 0, false},
		// A clear shift, but two of ten pairs lost: 8/10 < 9/10.
		{"eight wins of ten are not enough", thr,
			[]float64{200, 208, 196, 202, 198, 206, 194, 204, 90, 90}, verdictUnresolved, 8, 2, false},
		// One loss of ten still clears nine tenths.
		{"nine wins of ten are enough", thr,
			[]float64{200, 208, 196, 202, 198, 206, 194, 204, 200, 90}, verdictGain, 9, 1, false},
		{"a 30% drop in throughput is a loss past the 25% bound", thr, scale(0.7), verdictLoss, 0, 10, true},
		{"a 10% drop is a loss inside the bound", thr, scale(0.9), verdictLoss, 0, 10, false},
	}
	for _, tc := range cases {
		c := compare(tc.m, parent, tc.change)
		if c.verdict != tc.verdict || c.wins != tc.wins || c.losses != tc.losses || c.overBound != tc.over || c.pairs != 10 {
			t.Errorf("%s: verdict %q wins %d losses %d overBound %v pairs %d; want %q %d %d %v 10",
				tc.name, c.verdict, c.wins, c.losses, c.overBound, c.pairs, tc.verdict, tc.wins, tc.losses, tc.over)
		}
	}

	// Ties count for neither side: 8 wins + 2 ties is 8/10, not 8/8.
	change := scale(2)
	change[0], change[1] = parent[0], parent[1]
	if c := compare(thr, parent, change); c.wins != 8 || c.losses != 0 || c.verdict != verdictUnresolved {
		t.Errorf("ties: wins %d losses %d verdict %q, want 8 0 unresolved", c.wins, c.losses, c.verdict)
	}

	// The worsening is signed by the metric's direction and relative to the parent.
	if c := compare(thr, []float64{200}, []float64{150}); math.Abs(c.worsening-0.25) > 1e-12 || c.overBound {
		t.Errorf("throughput 200 -> 150: worsening %v overBound %v, want 0.25 false (the bound is inclusive)", c.worsening, c.overBound)
	}
	if c := compare(lat, []float64{2}, []float64{1}); math.Abs(c.worsening+0.5) > 1e-12 {
		t.Errorf("latency 2 -> 1: worsening %v, want -0.5", c.worsening)
	}
}

// TestBenchmarkDiff checks the instrument-identity gate: identical trees
// pass; an edited, a missing and an added benchmark file are each named;
// traces under benchmark/out/ and files outside the benchmark are not
// part of the instrument.
func TestBenchmarkDiff(t *testing.T) {
	write := func(root, rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	for _, root := range []string{a, b} {
		write(root, "BENCHMARK.json", "{}")
		write(root, "benchmark/main.go", "package main")
		write(root, "benchmark/stats.go", "package main // stats")
	}
	write(a, "benchmark/out/trace.jsonl", "spans of one side only")
	write(b, "internal/cluster/index.go", "the change itself")
	if diff, err := benchmarkDiff(a, b); err != nil || len(diff) != 0 {
		t.Fatalf("identical benchmarks: diff %v, err %v", diff, err)
	}
	write(b, "benchmark/stats.go", "package main // edited")
	write(b, "benchmark/extra.go", "package main")
	if err := os.Remove(filepath.Join(b, "benchmark/main.go")); err != nil {
		t.Fatal(err)
	}
	write(b, "BENCHMARK.json", `{"run_seconds": 1}`)
	diff, err := benchmarkDiff(a, b)
	want := []string{"BENCHMARK.json", "benchmark/extra.go", "benchmark/main.go", "benchmark/stats.go"}
	if err != nil || !slices.Equal(diff, want) {
		t.Fatalf("diff = %v, err %v; want %v", diff, err, want)
	}
}
