package stats

import (
	"math"
	"sync/atomic"
)

// This file implements the Student-t distribution from scratch: log-gamma
// (Lanczos), the regularized incomplete beta function (Lentz continued
// fraction), the t CDF, and the t quantile (bisection + Newton polish).
// These are the primitives behind the confidence intervals the template
// predictor uses to rank category estimates.

// lanczosCoef holds the g=7, n=9 Lanczos coefficients.
var lanczosCoef = [9]float64{
	0.99999999999980993,
	676.5203681218851,
	-1259.1392167224028,
	771.32342877765313,
	-176.61502916214059,
	12.507343278686905,
	-0.13857109526572012,
	9.9843695780195716e-6,
	1.5056327351493116e-7,
}

// LogGamma returns ln Γ(x) for x > 0.
func LogGamma(x float64) float64 {
	if x < 0.5 {
		// Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - LogGamma(1-x)
	}
	x--
	a := lanczosCoef[0]
	t := x + 7.5
	for i := 1; i < 9; i++ {
		a += lanczosCoef[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and 0 <= x <= 1, computed with the continued-fraction
// expansion (Numerical-Recipes-style modified Lentz algorithm).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := LogGamma(a+b) - LogGamma(a) - LogGamma(b) +
		a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	return 1 - math.Exp(lbeta)*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// TCDF returns P(T <= t) for a Student-t random variable with nu degrees of
// freedom (nu > 0).
func TCDF(t, nu float64) float64 {
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := nu / (nu + t*t)
	p := 0.5 * RegIncBeta(nu/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// The quantile memo. Predictors ask for the same few probability levels
// (one per confidence setting) at whole degrees of freedom bounded by the
// category history caps, millions of times per simulation, and each fresh
// evaluation costs a bisection over the incomplete beta function. Every
// level in (0.5, 1) gets one dense table indexed by degrees of freedom.
// The table's chunks are allocated lazily and their entries are filled
// one by one on first use. A read is three atomic loads and no
// allocation. Two goroutines missing the same entry both compute it and
// store identical bits, which is benign: the quantile is a pure function
// of (p, nu). Levels below 0.5 reach the table through the symmetry
// Q(p) = -Q(1-p); non-integer or out-of-range degrees of freedom, and
// levels beyond the first tqMaxLevels, are computed directly.
const (
	tqChunkBits = 8
	tqChunk     = 1 << tqChunkBits // entries per chunk
	tqMaxDF     = 1 << 17          // the table covers 1 <= nu < tqMaxDF
	tqMaxLevels = 16               // levels that get a table
)

// tqTable is the memo of one probability level. An entry holds the
// quantile's IEEE-754 bits; zero marks an entry not yet computed, since
// every quantile above the median is strictly positive.
type tqTable struct {
	p      float64
	chunks [tqMaxDF / tqChunk]atomic.Pointer[[tqChunk]atomic.Uint64]
}

// tqTables is the copy-on-write list of level tables; it only grows, and
// only up to tqMaxLevels entries.
var tqTables atomic.Pointer[[]*tqTable]

// TQuantile returns the p-quantile of the Student-t distribution with nu
// degrees of freedom: the t such that TCDF(t, nu) = p, for 0 < p < 1.
// Results for p outside (0,1) are ±Inf. Results for whole nu are memoized.
//
// hotpath: no-lock no-alloc no-clock
func TQuantile(p, nu float64) float64 {
	if nu >= 1 && nu < tqMaxDF {
		if k := int(nu); float64(k) == nu {
			if t := tqTableOf(p); t != nil {
				return t.quantile(k)
			}
		}
	}
	return tQuantileSlow(p, nu)
}

// tqTableOf returns the memo table of level p, registering it on first
// use, or nil when p is not memoized (outside (0.5, 1), or past the
// level cap).
func tqTableOf(p float64) *tqTable {
	if !(p > 0.5 && p < 1) {
		return nil
	}
	if ts := tqTables.Load(); ts != nil {
		for _, t := range *ts {
			if math.Float64bits(t.p) == math.Float64bits(p) {
				return t
			}
		}
	}
	return addTQTable(p)
}

// addTQTable registers a table for level p (copy-on-write, retried on a
// lost race) and returns it, or nil once tqMaxLevels levels exist.
//
// hotpath: exempt warm-up only: allocates once per confidence level per process, and nothing past the level cap, where a bisection follows anyway
func addTQTable(p float64) *tqTable {
	for {
		cur := tqTables.Load()
		var ts []*tqTable
		if cur != nil {
			ts = *cur
		}
		for _, t := range ts {
			if math.Float64bits(t.p) == math.Float64bits(p) {
				return t
			}
		}
		if len(ts) >= tqMaxLevels {
			return nil
		}
		next := append(ts[:len(ts):len(ts)], &tqTable{p: p})
		if tqTables.CompareAndSwap(cur, &next) {
			return next[len(ts)]
		}
	}
}

// quantile returns the memoized quantile at nu = k degrees of freedom.
func (t *tqTable) quantile(k int) float64 {
	if c := t.chunks[k>>tqChunkBits].Load(); c != nil {
		if b := c[k&(tqChunk-1)].Load(); b != 0 {
			return math.Float64frombits(b)
		}
	}
	return t.fill(k)
}

// fill computes and publishes entry k, allocating its chunk if needed.
//
// hotpath: exempt warm-up only: each (level, df) entry is computed once per process
func (t *tqTable) fill(k int) float64 {
	slot := &t.chunks[k>>tqChunkBits]
	c := slot.Load()
	if c == nil {
		c = new([tqChunk]atomic.Uint64)
		if !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	v := tQuantileSlow(t.p, float64(k))
	c[k&(tqChunk-1)].Store(math.Float64bits(v))
	return v
}

// tQuantileSlow computes the quantile by bracketed bisection.
func tQuantileSlow(p, nu float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p == 0.5:
		return 0
	case p < 0.5:
		return -TQuantile(1-p, nu)
	}
	// Bracket the root, then bisect. The normal quantile seeds the upper
	// bracket; t has heavier tails so widen until the CDF crosses p.
	lo := 0.0
	hi := math.Max(2, 2*NormQuantile(p))
	for TCDF(hi, nu) < p {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// NormQuantile returns the p-quantile of the standard normal distribution
// using Acklam's rational approximation (relative error < 1.15e-9),
// refined with one Halley step against math.Erfc.
func NormQuantile(p float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}
