package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder is the set of percentiles a tail figure may be reported at,
// highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for a tail latency: the
// highest ladder percentile that still has at least ten samples beyond it
// (p99 therefore needs 1000 samples). With fewer than twenty samples no
// percentile qualifies and the median is returned.
func tailPercentile(sorted []float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

// worseBy returns by what share of prev the metric got worse going from
// prev to cur (negative when it improved).
func worseBy(prev, cur float64, better string) float64 {
	if prev == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cur - prev) / math.Abs(prev)
	if better == "higher" && d != 0 {
		d = -d
	}
	return d
}

// regressed reports whether cur is worse than prev by more than bound.
func regressed(prev, cur float64, m metricSpec) bool {
	return worseBy(prev, cur, m.Better) > m.Bound
}

// extremes returns the best and the worst of the values in the metric's
// direction.
func extremes(v []float64, better string) (best, worst float64) {
	best, worst = v[0], v[0]
	for _, x := range v[1:] {
		if worseBy(best, x, better) < 0 {
			best = x
		}
		if worseBy(worst, x, better) > 0 {
			worst = x
		}
	}
	return best, worst
}
