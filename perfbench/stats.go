package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the middle two), 0 if
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, 0 if empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest quantile, at most 0.99, that leaves at least
// ten of n samples beyond it: the tail a sample of n can resolve.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
