package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "R-7" definition, as numpy's
// default). xs need not be sorted; it is not modified. An empty input
// yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does with its default
// "exclusive" method: cut point k sits at rank (n+1)·k/4, interpolated
// between neighbours, with the rank clamped to [1, n-1]. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spread is the interquartile range of xs as a share of its median —
// the run-to-run spread a benchmark bound must exceed. Equal quartiles
// are zero spread; otherwise a zero median is an infinite one.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	if !ok {
		return 0
	}
	m := median(xs)
	if q3 <= q1 {
		return 0
	}
	if m == 0 { //lint:allow floateq an exact zero median is the one value the division cannot take
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// ratio divides num by den, reporting 0 for an empty denominator so a
// metric with no events reads as zero instead of NaN (JSON has no NaN).
func ratio(num, den float64) float64 {
	if den == 0 { //lint:allow floateq an exact zero denominator is the one value the division cannot take
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
