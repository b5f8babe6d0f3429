package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// A percentile with fewer is refused rather than reported: with fewer
// than ten samples above it, a single outlier decides its value.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (p in
// 1..99): the smallest sample with at least p% of the samples at or
// below it.
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	if p < 1 || p > 99 {
		return 0, fmt.Errorf("percentile p%d out of range", p)
	}
	rank := (p*n + 99) / 100 // ceil(p*n/100), 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of xs (the mean of the two middle samples for
// an even count). It summarizes repeated whole-run measurements, where
// every sample is itself an aggregate.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
