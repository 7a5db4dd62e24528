// Package stats provides the statistical substrate used by the run-time
// predictors: descriptive statistics, Student-t quantiles, confidence and
// prediction intervals, and the linear, inverse, and logarithmic regressions
// described in the paper (Smith, Taylor, Foster, IPPS/SPDP 1999, §2.1).
//
// Everything is implemented from scratch on top of the standard library so
// the repository has no external dependencies.
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when an estimator needs more data points
// than it was given (for example a regression over fewer than three points,
// or a confidence interval over fewer than two).
var ErrInsufficientData = errors.New("stats: insufficient data")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	// Kahan summation keeps long category histories (up to 65536 points in
	// the paper's encoding) numerically stable.
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (denominator n-1),
// or NaN when fewer than two points are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanVar returns the mean and unbiased sample variance in a single pass
// (Welford's algorithm). For n < 2 the variance is NaN.
func MeanVar(xs []float64) (mean, variance float64) {
	var m, m2 float64
	var n int
	for _, x := range xs {
		n++
		d := x - m
		m += d / float64(n)
		m2 += d * (x - m)
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n < 2 {
		return m, math.NaN()
	}
	return m, m2 / float64(n-1)
}

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MeanAbs returns the mean of |xs[i]|, or NaN for an empty slice.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Abs(x)
	}
	return sum / float64(len(xs))
}

// Online accumulates a running mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Online struct {
	n  int
	m  float64
	m2 float64
}

// Add incorporates x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.m
	o.m += d / float64(o.n)
	o.m2 += d * (x - o.m)
}

// N returns the number of points accumulated so far.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or NaN if no points were added.
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.m
}

// Variance returns the running unbiased sample variance, or NaN for n < 2.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return math.NaN()
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the running sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// MeanCI returns the mean of xs together with the half-width of its
// two-sided confidence interval at the given confidence level
// (e.g. 0.90 for 90%), using the Student-t distribution with n-1 degrees
// of freedom: half = t * s / sqrt(n).
//
// The paper selects, among all categories that can provide a valid
// prediction, the estimate with the smallest confidence interval; this is
// the routine that computes those intervals.
func MeanCI(xs []float64, level float64) (mean, half float64, err error) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN(), ErrInsufficientData
	}
	m, v := MeanVar(xs)
	if v == 0 {
		// A category of identical run times predicts itself exactly.
		return m, 0, nil
	}
	t := TQuantile(0.5+level/2, float64(n-1))
	return m, t * math.Sqrt(v/float64(n)), nil
}
