package metrics

// histogram.go is the repository's ONE latency histogram: every
// quantile the system reports — Report percentiles, the gateway's
// Prometheus/JSON metrics, telemetry snapshots — funnels through this
// type (scripts/check.sh guards against re-implementations).

import (
	"math"
	"time"
)

// Histogram is a log-bucketed duration histogram: constant relative
// error (~5%) from 1 microsecond to ~1 hour in a few hundred buckets,
// so million-request runs stay O(1) memory and quantiles never require
// storing samples. The zero value is ready to use.
type Histogram struct {
	counts []uint64
	total  uint64
}

const (
	histMin    = float64(time.Microsecond)
	histGrowth = 1.05
)

// HistBuckets is the fixed bucket count of every Histogram.
var HistBuckets = func() int {
	return int(math.Ceil(math.Log(float64(time.Hour)/histMin)/math.Log(histGrowth))) + 2
}()

func bucketOf(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	b := int(math.Log(float64(d)/histMin)/math.Log(histGrowth)) + 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket b.
func BucketUpper(b int) time.Duration {
	if b <= 0 {
		return time.Microsecond
	}
	return time.Duration(histMin * math.Pow(histGrowth, float64(b)))
}

// Add records one duration.
func (h *Histogram) Add(d time.Duration) {
	if h.counts == nil {
		//lint:ignore hotalloc a histogram's first Add only
		h.counts = make([]uint64, HistBuckets)
	}
	h.counts[bucketOf(d)]++
	h.total++
}

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of
// the bucket holding the q-th observation.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(h.total)))
	if need < 1 {
		need = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= need {
			return BucketUpper(b)
		}
	}
	return BucketUpper(HistBuckets - 1)
}

// Merge folds another histogram's counts into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.counts == nil {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, HistBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// Each visits the non-empty buckets in ascending order with their
// inclusive upper bound and count (Prometheus exposition walks this).
func (h *Histogram) Each(fn func(upper time.Duration, count uint64)) {
	for b, c := range h.counts {
		if c > 0 {
			fn(BucketUpper(b), c)
		}
	}
}

// Reset zeroes every bucket in place, keeping the allocated bucket
// slice — the recycle point for pooled recorders.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// Clone returns an independent copy (snapshot paths copy under lock,
// then compute quantiles outside it).
func (h *Histogram) Clone() Histogram {
	out := Histogram{total: h.total}
	if h.counts != nil {
		out.counts = append([]uint64(nil), h.counts...)
	}
	return out
}
