package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quantile returns the value a share q (0 <= q <= 1) of the way through
// vals in ascending order, interpolating between the two samples it
// falls between, without reordering the caller's slice. It returns 0 for
// an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the middle value of vals (mean of the two middle ones
// for an even count).
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// byWindow splits samples by their window index and returns every
// non-empty window's samples, sorted. Callers take a percentile inside
// each window and report the median of those: one slow second moves one
// window, not the result — a whole-run p99 does not repeat on a shared
// host, the median of per-window p99s does.
func byWindow(values []int64, window []int, windows int) [][]int64 {
	buckets := make([][]int64, windows)
	for i, v := range values {
		if w := window[i]; w >= 0 && w < windows {
			buckets[w] = append(buckets[w], v)
		}
	}
	filled := buckets[:0]
	for _, b := range buckets {
		if len(b) > 0 {
			slices.Sort(b)
			filled = append(filled, b)
		}
	}
	return filled
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
