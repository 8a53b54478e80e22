package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below
// it. Nearest rank never interpolates, so every reported latency is one
// that was measured.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns vs in ascending order without touching vs.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median is the midpoint median (the mean of the two middle samples
// for an even count), matching Python's statistics.median.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the rule Python's
// statistics.quantiles(values, n=4) uses (method "exclusive"), because
// that is the rule the acceptance check applies to this benchmark's
// run-to-run spread. Fewer than two samples have no spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based scale; like Python, clamp the
		// interval and let delta extrapolate past it for tiny samples.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}
