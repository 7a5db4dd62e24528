package main

import (
	"math"
	"sort"
)

// dist summarizes a sample: its size, median and 99th percentile.
type dist struct {
	N   int
	P50 float64
	P99 float64
}

// window is the size of the consecutive request windows tail percentiles
// are taken over: the smallest sample with ten samples beyond its p99.
const window = 1000

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// linear interpolation between the two nearest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summarize sorts a copy of xs and returns its size, median and p99.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{N: len(s), P50: quantile(s, 0.50), P99: quantile(s, 0.99)}
}

// windowQuantile splits a sample, in the order it was taken, into
// consecutive windows and returns the median of the windows'
// q-quantiles, with the number of windows. A stalled second then moves
// one window, not the figure. A sample under two windows gives its own
// quantile.
func windowQuantile(xs []float64, q float64) (float64, int) {
	if len(xs) < 2*window {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return quantile(s, q), 1
	}
	var qs []float64
	for i := 0; i+window <= len(xs); i += window {
		s := append([]float64(nil), xs[i:i+window]...)
		sort.Float64s(s)
		qs = append(qs, quantile(s, q))
	}
	return median(qs), len(qs)
}

// median is the 0.5-quantile of xs (NaN when empty).
func median(xs []float64) float64 { return summarize(xs).P50 }

// upperQuartile is the 0.75-quantile of xs (NaN when empty). Interference
// from a shared host (stolen time, a busy sibling core, late wake-ups)
// only ever lowers a utilization, so the upper quartile of a run's
// segments reads what the program allows, while a change that serializes
// work lowers every segment.
func upperQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.75)
}

// ratio is num/den, or 0 when den is not positive (an empty base).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// unexplainedFrac is the share of the end-to-end median that the layers do
// not account for: (e2e − transport − layers) / e2e, where layers is the
// median over requests of the summed layer self times of one request.
func unexplainedFrac(e2eP50, transport float64, perRequestLayers []float64) float64 {
	if e2eP50 <= 0 || len(perRequestLayers) == 0 {
		return 0
	}
	return (e2eP50 - transport - median(perRequestLayers)) / e2eP50
}
