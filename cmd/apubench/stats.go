package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean something.
const tailBeyond = 10

// median returns the middle of v (the mean of the two middle values when
// len(v) is even); 0 for an empty slice. v is not modified.
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

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so a spread
// computed here is the spread the benchmark's acceptance rule computes.
// It needs len(v) >= 2.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of v as a share of its median — the
// run-to-run noise a bound is judged against. 0 when it cannot be computed.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// minOpsFor is the smallest sample count that leaves tailBeyond samples
// beyond percentile pct.
func minOpsFor(pct int) int {
	return (tailBeyond*100 + (100 - pct) - 1) / (100 - pct)
}

// pickTail returns the percentile to report for n samples: want, the
// workload's fixed tail, when n leaves tailBeyond samples beyond it, else
// the highest whole percentile that does, and never below the median.
func pickTail(n, want int) int {
	for pct := want; pct > 50; pct-- {
		if n-rank(n, pct) >= tailBeyond {
			return pct
		}
	}
	return 50
}

// rank is the nearest-rank position (1-based) of percentile pct among n
// sorted samples.
func rank(n, pct int) int {
	return (n*pct + 99) / 100
}

// percentile returns the nearest-rank percentile of sorted and how many
// samples lie beyond it.
func percentile(sorted []float64, pct int) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	r := max(rank(len(sorted), pct), 1)
	return sorted[r-1], len(sorted) - r
}
