package main

// stats.go is the comparison's arithmetic: medians, quartiles, pair wins
// and the verdict rule. Pure functions, unit-tested in stats_test.go; no
// benchmark runs from here.

import (
	"math"
	"slices"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" | "higher"
	Bound  float64 `json:"bound"`  // relative worsening the benchmark tolerates
}

// betterThan reports whether a is strictly better than b for the metric.
func (m metricSpec) betterThan(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method: the i-th
// of n sorted values sits at i/(n+1)) — the rule benchmark/stats.go
// documents for the driver that gates a PR, so the spread printed here
// is the spread the claim is judged against.
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

// Verdicts of one metric's paired comparison.
const (
	verdictGain       = "gain"
	verdictLoss       = "loss"
	verdictIdentical  = "identical"
	verdictUnresolved = "unresolved"
)

// comparison is one metric's row of the report.
type comparison struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	wins, losses, pairs           int // pairs the change won / lost; ties count for neither
	verdict                       string
	// worsening is how much worse the change's median is than the
	// parent's, relative to the parent's (negative when it is better);
	// overBound marks a worsening past the metric's BENCHMARK.json bound.
	worsening float64
	overBound bool
}

// compare applies the paired-run rule of the choosing-metrics guide (§8)
// to one metric: parent[i] and change[i] are the two sides of pair i. A
// gain needs the change to win at least nine tenths of all pairs and the
// medians to differ by more than the distance between the parent's
// quartiles; a loss is the mirror image. Pairs that all read the same on
// both sides (the deterministic policy metrics) are "identical".
func compare(m metricSpec, parent, change []float64) comparison {
	c := comparison{pairs: min(len(parent), len(change))}
	parent, change = parent[:c.pairs], change[:c.pairs]
	c.parentMed, c.changeMed = median(parent), median(change)
	c.parentQ1, c.parentQ3 = quartiles(parent)
	c.changeQ1, c.changeQ3 = quartiles(change)
	for i := range parent {
		switch {
		case m.betterThan(change[i], parent[i]):
			c.wins++
		case m.betterThan(parent[i], change[i]):
			c.losses++
		}
	}
	if c.parentMed != 0 {
		c.worsening = (c.changeMed - c.parentMed) / math.Abs(c.parentMed)
		if m.Better == "higher" {
			c.worsening = -c.worsening
		}
	}
	c.overBound = c.worsening > m.Bound
	apart := math.Abs(c.changeMed-c.parentMed) > c.parentQ3-c.parentQ1
	switch {
	case c.pairs > 0 && c.wins == 0 && c.losses == 0:
		c.verdict = verdictIdentical
	case 10*c.wins >= 9*c.pairs && apart && m.betterThan(c.changeMed, c.parentMed):
		c.verdict = verdictGain
	case 10*c.losses >= 9*c.pairs && apart && m.betterThan(c.parentMed, c.changeMed):
		c.verdict = verdictLoss
	default:
		c.verdict = verdictUnresolved
	}
	return c
}
