package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A tail percentile read from fewer samples is one or two outliers, not
// a property of the system, so the helper reports the highest percentile
// the sample count supports instead.
const minBeyond = 10

// pctl is one reported percentile: its value, the percentile actually
// read (never above the requested one), and the sample count.
type pctl struct {
	Value float64
	At    float64
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, lowered until at least minBeyond samples lie above it, and
// never below the median. It reports the percentile it read.
func percentile(samples []float64, p float64) pctl {
	n := len(samples)
	if n == 0 {
		return pctl{Value: math.NaN()}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if limit := n - 1 - minBeyond; idx > limit {
		idx = limit
	}
	if mid := (n - 1) / 2; idx < mid {
		idx = mid
	}
	return pctl{Value: s[idx], At: 100 * float64(idx+1) / float64(n), N: n}
}

// median is the middle sample (the mean of the two middle ones for an
// even count).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t / float64(len(samples))
}
