package main

import (
	"math"
	"sort"
)

// tailTop is the highest percentile the open-loop tail metric reports.
// A p99 rests on the slowest hundredth of a run's requests, and on a
// shared two-vCPU host a few stalls caused by other tenants decide those:
// run-to-run it swung by several times its median. p90 rests on ten
// times as many requests.
const tailTop = 90

// tailPercentile applies the benchmark's tail rule to a latency sample:
// report the highest whole percentile p ≤ top that still has at least
// ten samples strictly beyond its nearest-rank position, so a short run
// reports a lower percentile instead of one resting on one or two
// requests. It returns the value, the percentile used, and false when
// the sample is too small for any percentile from p50 up.
func tailPercentile(sorted []float64, top int) (float64, int, bool) {
	n := len(sorted)
	for p := top; p >= 50; p-- {
		rank := nearestRank(n, float64(p))
		if rank >= 1 && n-rank >= 10 {
			return sorted[rank-1], p, true
		}
	}
	return 0, 0, false
}

// nearestRank is the 1-based nearest-rank position of percentile p in a
// sample of n values: ceil(p/100 · n).
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p / 100 * float64(n)))
}

// percentile returns the nearest-rank percentile of an ascending sample
// (0 for an empty one).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := nearestRank(len(sorted), p)
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// median returns the median of xs (mean of the middle pair for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns Q1, median and Q3 by the same method as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), which
// is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive", transcribed: the
		// clamp can leave delta outside [0, 4], which extrapolates.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}
