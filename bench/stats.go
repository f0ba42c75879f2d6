package main

import (
	"math"
	"sort"
)

// rankOf returns the 1-based nearest rank of the perMille percentile among
// n sorted samples: the smallest rank r with r/n >= perMille/1000.
func rankOf(perMille, n int) int {
	r := (perMille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank perMille percentile of sorted.
func percentile(sorted []float64, perMille int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(perMille, len(sorted))-1]
}

// tail is a tail-latency reading: the percentile, its value, and how many
// samples lie beyond it.
type tail struct {
	PerMille int     `json:"per_mille"`
	Value    float64 `json:"value"`
	Beyond   int     `json:"samples_beyond"`
}

// tailAt reads the perMille percentile of sorted samples as a tail, with
// the count of samples beyond it (the report flags fewer than 10).
func tailAt(sorted []float64, perMille int) tail {
	n := len(sorted)
	if n == 0 {
		return tail{PerMille: perMille, Value: math.NaN()}
	}
	return tail{PerMille: perMille, Value: percentile(sorted, perMille), Beyond: n - rankOf(perMille, n)}
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so spreads read the same here as in any script that checks them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4 // may leave [0,4] after clamping: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
