package main

import (
	"math"
	"sort"
)

// Estimators. Every timing metric is computed once per measurement window
// and the run reports the quartile window on the good side: the fourth
// best of sixteen. Both tails of the window distribution are unreliable on
// a shared two-core box. A busy neighbour slows windows, sometimes ten in
// a row, so the median window is often a slowed one; and now and then one
// to four windows run a fifth faster than their neighbours, so the best
// and second-best windows are a lottery. The fourth best steps over the
// lucky windows and needs only a quarter of the run to be undisturbed.
// Summed over three calibrations of ten runs per workload, its run-to-run
// spread was the lowest of the ranks tried (best, 2nd, 3rd, 4th, 5th,
// median) and so was its worst case.

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p% of the samples at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// samplesBeyond is how many samples lie strictly above the nearest-rank
// p-th percentile position; a tail percentile is reported only with at
// least ten.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// lowerQuartile is the window rank for costs (latency, CPU, per-window
// tail percentiles): of sixteen windows, the fourth lowest.
func lowerQuartile(v []float64) float64 { return percentile(sortedCopy(v), 25) }

// upperQuartile is the window rank for rates: the fourth highest.
func upperQuartile(v []float64) float64 {
	neg := make([]float64, len(v))
	for i, x := range v {
		neg[i] = -x
	}
	return -lowerQuartile(neg)
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance check of the benchmark uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return percentile(s, 50), percentile(s, 50), percentile(s, 50)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
