package main

import (
	"math"
	"slices"
)

// sortedCopy returns xs in ascending order, leaving xs as it is.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
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

// mean of an integer sample; 0 for an empty one.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// by the rule of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), which is the rule the benchmark contract's spread check uses.
// A single sample is its own three quartiles; an empty one yields zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 on the 1-based sorted sample, clamped.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle quartile of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
