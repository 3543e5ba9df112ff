package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of xs.
// An empty sample has no percentile: the NaN it gets stops the run's result
// from being printed.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spread is the min, median and max of one metric over the slices of a
// measured window: the benchmark's own statement of how far the metric
// moves within a run, which -compare sets beside the metric's bound.
type spread struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func spreadOf(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	return spread{Min: slices.Min(xs), Median: median(xs), Max: slices.Max(xs)}
}

// rel is the spread's width as a share of its median.
func (s spread) rel() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}

// sliceOf maps an offset into a window of the given length onto one of n
// equal slices. Offsets past the end (a request that was due inside the
// window and finished after it) belong to the last slice.
func sliceOf(offset, window float64, n int) int {
	if window <= 0 || offset < 0 {
		return 0
	}
	i := int(offset / window * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}
