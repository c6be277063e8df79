package main

import (
	"math"
	"sort"

	"rasc.dev/rasc/internal/metrics"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of v by the rule the
// program's own figures use (metrics.Histogram); 0 when v is empty.
func percentile(v []float64, p float64) float64 {
	var h metrics.Histogram
	for _, x := range v {
		h.Add(x)
	}
	return h.Percentile(p)
}

func median(v []float64) float64 { return percentile(v, 50) }

// tailPercentiles are the percentiles the suite may report, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// supportedTail is the guide's rule: the highest percentile that still has
// at least ten samples beyond it. With fewer than 40 samples not even p75
// qualifies and only the median is reported (ok is false).
func supportedTail(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if supports(n, p) {
			return p, true
		}
	}
	return 0, false
}

// supports reports whether n samples leave at least ten beyond percentile p.
func supports(n int, p float64) bool { return float64(n)*(100-p)/100 >= 10-1e-9 }

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method Python's statistics.quantiles(v, n=4) uses, which is
// what the benchmark contract's spread is defined on.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
