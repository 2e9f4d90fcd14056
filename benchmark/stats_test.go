package main

// Tests of the harness's own arithmetic. They start no workload.

import (
	"math"
	"testing"
)

func TestBestMean(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		dir  direction
		want float64
	}{
		{"empty", nil, lower, 0},
		{"one value", []float64{7}, higher, 7},
		{"eight values keep one", []float64{8, 4, 1, 3, 2, 7, 6, 5}, lower, 1},
		{"nine values keep two", []float64{9, 5, 1, 4, 2, 3, 8, 7, 6}, lower, 1.5},
		{"throughput takes the top", []float64{10, 40, 20, 30, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160}, higher, 155},
		{"an outlier on the bad side is ignored", []float64{100, 100, 100, 3}, higher, 100},
	}
	for _, c := range cases {
		if got := bestMean(c.vals, c.dir); got != c.want {
			t.Errorf("%s: bestMean(%v) = %v, want %v", c.name, c.vals, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	bestMean(in, lower)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("bestMean reordered its input: %v", in)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd count: got %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for the same inputs.
	cases := []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 3, 3}, 3, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}

func TestHighestSupported(t *testing.T) {
	// "at least ten samples beyond": n*(1-q) >= 10.
	cases := []struct {
		n    int
		want float64
	}{
		{50, 0.5}, // not even p90 has ten samples beyond it
		{99, 0.5},
		{100, 0.90},
		{199, 0.90},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
		{100000, 0.9999},
	}
	for _, c := range cases {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	// 1..1000: p99 is supported (ten samples beyond) and is 990.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if v, q := tailQuantile(big); v != 990 || q != 0.99 {
		t.Errorf("1000 samples: got %d at q=%v, want 990 at 0.99", v, q)
	}
	// Many more samples never push the report past p99.
	huge := make([]int64, 100000)
	for i := range huge {
		huge[i] = int64(i + 1)
	}
	if v, q := tailQuantile(huge); v != 99000 || q != 0.99 {
		t.Errorf("100000 samples: got %d at q=%v, want 99000 at 0.99", v, q)
	}
	// 300 samples support p95, not p99.
	small := big[:300]
	if v, q := tailQuantile(small); v != 285 || q != 0.95 {
		t.Errorf("300 samples: got %d at q=%v, want 285 at 0.95", v, q)
	}
	if got := quantileSorted(big, 0.5); got != 500 {
		t.Errorf("median of 1..1000: got %d, want 500", got)
	}
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("empty: got %d, want 0", got)
	}
}

func TestBucketQuantileInterpolates(t *testing.T) {
	h := []bucket{
		{lower: 0, upper: 10, count: 10},
		{lower: 10, upper: 20, count: 10},
		{lower: 20, upper: 40, count: 20},
	}
	cases := []struct{ q, want float64 }{
		{0.25, 10}, // the whole first bin
		{0.375, 15},
		{0.5, 20},
		{0.75, 30},
		{1, 40},
	}
	for _, c := range cases {
		if got := bucketQuantile(h, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("bucketQuantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := bucketQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
	// One request changing side of the median moves the estimate by a
	// fraction of a bin, not by a whole bin.
	moved := []bucket{h[0], {lower: 10, upper: 20, count: 9}, {lower: 20, upper: 40, count: 21}}
	if d := math.Abs(bucketQuantile(moved, 0.5) - bucketQuantile(h, 0.5)); d == 0 || d > 1.1 {
		t.Errorf("moving one sample shifted the median by %v, want a small non-zero step", d)
	}
}

func TestMergeBuckets(t *testing.T) {
	a := []bucket{{0, 10, 1}, {10, 20, 2}}
	b := []bucket{{10, 20, 3}, {20, 40, 4}}
	got := mergeBuckets(a, b)
	want := []bucket{{0, 10, 1}, {10, 20, 5}, {20, 40, 4}}
	if len(got) != len(want) {
		t.Fatalf("merged %d bins, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bin %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestLowerEdgeMs(t *testing.T) {
	for _, b := range []int{1, 17, 200} {
		upper, below := histEdgesMs[b], histEdgesMs[b-1]
		if got := lowerEdgeMs(upper); got != below {
			t.Errorf("bin %d: lower edge of %v = %v, want %v", b, upper, got, below)
		}
	}
	if got := lowerEdgeMs(histEdgesMs[0]); got != 0 {
		t.Errorf("first bin: lower edge %v, want 0", got)
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	a, b, c := newDigest(), newDigest(), newDigest()
	a.add(1, 2, 3)
	b.add(1, 2, 3)
	c.add(3, 2, 1)
	if a.sum() != b.sum() {
		t.Error("equal sequences digest differently")
	}
	if a.sum() == c.sum() {
		t.Error("a reordered sequence digests the same")
	}
}
