package main

// stats.go is the harness's own arithmetic: how per-segment values
// collapse into one reported number, how a percentile is chosen so that
// it is backed by enough samples, and the digest the output checks
// compare. Everything here is pure and unit-tested
// (stats_test.go); no workload runs from these functions.

import (
	"cmp"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
)

// direction says which way a metric improves; the best eighth of a set
// of segment values is taken from that end.
type direction int

const (
	lower  direction = iota // latency, cost: smaller is better
	higher                  // throughput: larger is better
)

// bestShare is the part of a run's segments a wall-clock metric is read
// from: the best eighth.
const bestShare = 8

// bestMean is the reported value of a wall-clock metric: the mean of the
// best ceil(n/8) segment values. Interference on a shared host only ever
// makes a segment worse, and on the host this was sized on it comes in
// spells of one to four seconds that slow a memory-bound loop by up to
// 1.75x; segments of a quarter of a second fall wholly inside or outside
// a spell, so the best eighth estimates the undisturbed speed as long as
// an eighth of the run is undisturbed, while still averaging over
// several segments. README.md has the comparison with the median, the
// best quarter and the maximum.
func bestMean(vals []float64, dir direction) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if dir == higher {
		slices.Reverse(s)
	}
	k := (len(s) + bestShare - 1) / bestShare
	sum := 0.0
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (its default "exclusive" method:
// the i-th of n sorted values sits at i/(n+1)), because that is what the
// benchmark's driver computes a metric's spread from.
func quartiles(vals []float64) (q1, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1) // 1-based position among the sorted values
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// quantileSorted returns the q-quantile of an ascending slice by the
// nearest-rank rule: the smallest value with at least q*n values at or
// below it.
func quantileSorted(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(rank, 0), n-1)]
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.90}

// highestSupported returns the highest candidate percentile with at
// least ten samples beyond it (n*(1-q) >= 10), or 0.5 when even p90 is
// not supported. A p99 read from 300 samples is the third-largest
// value; the rule keeps such numbers out of the report.
func highestSupported(n int) float64 {
	for _, q := range tailPercentiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// tailQuantile is the p99 of an ascending sample, or the highest
// supported percentile below it when the sample is too small for p99.
func tailQuantile(sorted []int64) (value int64, q float64) {
	q = math.Min(0.99, highestSupported(len(sorted)))
	return quantileSorted(sorted, q), q
}

// bucket is one histogram bin: count values fell in (lower, upper].
type bucket struct {
	lower, upper float64
	count        uint64
}

// mergeBuckets sums histograms bin by bin (bins are identified by their
// upper edge) into one histogram ascending by upper edge.
func mergeBuckets(hists ...[]bucket) []bucket {
	byUpper := map[float64]bucket{}
	for _, h := range hists {
		for _, b := range h {
			m := byUpper[b.upper]
			m.lower, m.upper = b.lower, b.upper
			m.count += b.count
			byUpper[b.upper] = m
		}
	}
	out := make([]bucket, 0, len(byUpper))
	for _, b := range byUpper {
		out = append(out, b)
	}
	slices.SortFunc(out, func(a, b bucket) int { return cmp.Compare(a.upper, b.upper) })
	return out
}

// bucketQuantile reads the q-quantile from an ascending histogram,
// interpolating linearly inside the bin that holds it. The repository's
// histogram has 5 % wide bins; without the interpolation a quantile
// would jump by a whole bin when one request changes side, which no
// bound below 5 % could absorb.
func bucketQuantile(h []bucket, q float64) float64 {
	var total uint64
	for _, b := range h {
		total += b.count
	}
	if total == 0 {
		return 0
	}
	need := q * float64(total)
	cum := 0.0
	for _, b := range h {
		if b.count > 0 && cum+float64(b.count) >= need {
			frac := (need - cum) / float64(b.count)
			return b.lower + frac*(b.upper-b.lower)
		}
		cum += float64(b.count)
	}
	return h[len(h)-1].upper
}

// digest folds a sequence of values into one 64-bit FNV-1a hash; the
// output checks compare digests of whole runs, so it depends on order.
type digest struct {
	h   hash.Hash64
	buf [8]byte // in the struct so that add allocates nothing: it runs inside timed segments
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(vals ...uint64) {
	for _, v := range vals {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		_, _ = d.h.Write(d.buf[:]) // hash.Hash writes never fail
	}
}

func (d *digest) addFloat(f float64) { d.add(math.Float64bits(f)) }

func (d *digest) addString(s string) { _, _ = d.h.Write([]byte(s)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }
