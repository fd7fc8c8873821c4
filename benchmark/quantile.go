package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: with fewer, the figure is one or two outliers,
// not a percentile.
const minBeyond = 10

// samples holds raw per-operation durations; quantiles are exact, read
// from the sorted samples, never from histogram buckets.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples. ok is
// false when there are no samples, or when q is a tail (q > 0.5) with
// fewer than minBeyond samples above the returned one.
func (s samples) quantile(q float64) (d time.Duration, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, false
	}
	return s[rank-1], true
}

// reading is one printed value: ok false prints as null.
type reading struct {
	v  float64
	n  int // samples behind the value; 0 when it is not a sample statistic
	ok bool
}

func value(v float64) reading { return reading{v: v, ok: true} }

// quantileIn reads a quantile of sorted samples in the given unit.
func (s samples) quantileIn(q float64, unit time.Duration) reading {
	d, ok := s.quantile(q)
	return reading{v: float64(d) / float64(unit), n: len(s), ok: ok}
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
