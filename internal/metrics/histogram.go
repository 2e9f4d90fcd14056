package metrics

// histogram.go is the repository's ONE latency histogram: every
// quantile the system reports — Report percentiles, the gateway's
// Prometheus/JSON metrics, telemetry snapshots — funnels through this
// type (scripts/check.sh guards against re-implementations).
//
// bucketFormula, a logarithm, is the definition of a bucket. Add does not
// evaluate it: bucketFirst and bucketSlot are derived from it at init,
// and bucketOf answers from those two tables with the formula's result.

import (
	"math"
	"math/bits"
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

// bucketFormula is the bucket of d: 0 up to a microsecond, then one
// bucket per factor of histGrowth, the last one open-ended. It is
// non-decreasing in d, which is what lets bucketFirst describe it.
func bucketFormula(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	b := int(math.Log(float64(d)/histMin)/math.Log(histGrowth)) + 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

var (
	// bucketFirst[b] is the least duration bucketFormula maps to bucket b
	// or above, for b in [1, HistBuckets); bucketFirst[HistBuckets] = 2⁶³
	// lies above every duration and ends the walk in bucketOf.
	bucketFirst []uint64
	// bucketSlot[n<<4|k] is the bucket of the least duration whose bit
	// length is n and whose four bits below the leading one are k. Such a
	// slot spans at most 1/16 of its lower end and a bucket 1/20, so a
	// duration's bucket is at most two boundaries above its slot's.
	bucketSlot [64 << 4]uint16
)

func init() {
	bucketFirst = make([]uint64, HistBuckets+1)
	bucketFirst[HistBuckets] = 1 << 63
	lo := int64(time.Microsecond) + 1
	for b := 1; b < HistBuckets; b++ {
		hi := int64(math.MaxInt64) // bucketFormula(MaxInt64) is the last bucket
		for lo < hi {
			mid := lo + (hi-lo)/2
			if bucketFormula(time.Duration(mid)) >= b {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bucketFirst[b] = uint64(lo)
	}
	for n := 5; n < 64; n++ {
		for k := 0; k < 16; k++ {
			bucketSlot[n<<4|k] = uint16(bucketFormula(time.Duration((16 + k) << (n - 5))))
		}
	}
}

// bucketOf returns bucketFormula(d): the slot's first candidate bucket,
// walked up past every boundary at or below d.
func bucketOf(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	u := uint64(d)
	n := bits.Len64(u)
	b := int(bucketSlot[n<<4|int(u>>(n-5)&15)])
	for u >= bucketFirst[b+1] {
		b++
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
		// a histogram's first Add only
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
