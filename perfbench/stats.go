package main

import (
	"math"
	"sort"
)

// samples collects one timing series (milliseconds).
type samples []float64

// percentile returns the nearest-rank p-th percentile: the smallest
// value with at least p% of the samples at or below it. NaN when empty.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return v[min(max(rank(p, len(v)), 1), len(v))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// p·n is formed before dividing so whole-number cases stay exact.
func rank(p float64, n int) int { return int(math.Ceil(p * float64(n) / 100)) }

// tailOK reports whether the p-th percentile holds at least ten
// samples beyond it, the condition for naming a tail percentile.
func (s samples) tailOK(p float64) bool {
	return len(s)-rank(p, len(s)) >= 10
}

// median is the middle value, or the mean of the two middle values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 by the "exclusive" method of Python's
// statistics.quantiles(values, n=4), the rule a run-to-run spread is
// judged by. It needs at least two values.
func quartiles(vals []float64) [3]float64 {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		out[i-1] = (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q := quartiles(vals)
	return (q[2] - q[0]) / q[1]
}
