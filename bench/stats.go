package main

import (
	"math"
	"slices"
)

// Latencies are kept as raw int64 nanosecond samples and sorted
// exactly. Nothing here goes through obs.Histogram: its power-of-two
// buckets are what turned BENCH_6's three p99s into one number.

// sorted returns an ascending copy of v.
func sorted(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending sample: the smallest value with at least p of the sample at
// or below it. An empty sample has no percentiles and yields 0.
func percentile(asc []int64, p float64) int64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(len(asc), p)-1]
}

// rank is the 1-based nearest rank of quantile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailSupported reports whether quantile p of n samples has at least
// ten samples beyond it — the rule for reporting a tail at all.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= 10
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// median returns the median of v (mean of the middle two when even);
// 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method),
// because that is what the acceptance check of the spread uses. It
// needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance of v as a share of its median;
// NaN when v has fewer than two values or a zero median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / m)
}
