package main

import (
	"math"
	"sort"
)

// minBeyond is the reporting rule for percentiles: a percentile is only
// reported when at least this many samples lie beyond it, so one
// outlier cannot decide it.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave at least minBeyond samples
// beyond the p-th percentile.
func supports(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
