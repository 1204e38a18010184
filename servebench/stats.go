package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tailQuantile is the tail percentile reported for n samples: p99, or the
// highest percentile that still has at least ten samples beyond it.
func tailQuantile(n int) float64 {
	q := 0.99
	if n > 0 {
		if lim := 1 - 10/float64(n); lim < q {
			q = lim
		}
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// share is num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
