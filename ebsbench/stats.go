package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is one outlier away from a
// different value, so the benchmark refuses to report it.
const minBeyond = 10

// Median is the middle sample (the mean of the two middle samples for an
// even count). It needs at least one sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Tail is the nearest-rank p-th percentile of xs, 0 < p < 100. It fails
// unless at least minBeyond samples rank above it.
func Tail(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want >= %d", p, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// Max is the largest sample (0 for none).
func Max(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a / b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(d time.Duration) float64 { return d.Seconds() }
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
