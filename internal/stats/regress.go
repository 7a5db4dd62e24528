package stats

import "math"

// The paper's template predictor supports four prediction types within a
// category: the mean, a linear regression, an inverse regression, and a
// logarithmic regression of run time against the requested number of nodes
// (§2.1, citing Draper & Smith). The regressions here return both point
// predictions and prediction-interval half-widths so the predictor can
// select the estimate with the smallest interval, exactly as it does with
// mean confidence intervals.

// LinReg holds a fitted simple linear regression y = Intercept + Slope*x.
type LinReg struct {
	Slope, Intercept float64
	N                int     // number of points
	XMean            float64 // mean of the regressor
	SXX              float64 // sum of squared regressor deviations
	ResidStd         float64 // residual standard error (n-2 df)
}

// FitLinear fits y = a + b*x by ordinary least squares.
// It returns ErrInsufficientData for fewer than three points or a
// degenerate regressor (all x equal).
func FitLinear(xs, ys []float64) (*LinReg, error) {
	n := len(xs)
	if n != len(ys) || n < 3 {
		return nil, ErrInsufficientData
	}
	xm := Mean(xs)
	ym := Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - xm
		sxx += dx * dx
		sxy += dx * (ys[i] - ym)
	}
	if sxx == 0 {
		return nil, ErrInsufficientData
	}
	b := sxy / sxx
	a := ym - b*xm
	var sse float64
	for i := range xs {
		r := ys[i] - (a + b*xs[i])
		sse += r * r
	}
	return &LinReg{ //lint:allow hotpath one result struct per regression fit; part of the committed allocs/op floor
		Slope:     b,
		Intercept: a,
		N:         n,
		XMean:     xm,
		SXX:       sxx,
		ResidStd:  math.Sqrt(sse / float64(n-2)),
	}, nil
}

// Predict returns the point prediction at x.
func (r *LinReg) Predict(x float64) float64 {
	return r.Intercept + r.Slope*x
}

// PredictInterval returns the point prediction at x and the half-width of
// the two-sided prediction interval for a single new observation at the
// given confidence level:
//
//	half = t(level, n-2) * s * sqrt(1 + 1/n + (x - x̄)²/Sxx)
func (r *LinReg) PredictInterval(x, level float64) (pred, half float64) {
	pred = r.Predict(x)
	if r.ResidStd == 0 {
		return pred, 0
	}
	t := TQuantile(0.5+level/2, float64(r.N-2))
	dx := x - r.XMean
	half = t * r.ResidStd * math.Sqrt(1+1/float64(r.N)+dx*dx/r.SXX)
	return pred, half
}

// FitInverse fits y = a + b/x (the paper's "inverse regression") by
// transforming the regressor to 1/x. All x must be nonzero.
func FitInverse(xs, ys []float64) (*TransformedReg, error) {
	tx := make([]float64, len(xs)) //lint:allow hotpath one transformed-regressor slice per fit; part of the committed allocs/op floor
	for i, x := range xs {
		if x == 0 {
			return nil, ErrInsufficientData
		}
		tx[i] = 1 / x
	}
	lr, err := FitLinear(tx, ys)
	if err != nil {
		return nil, err
	}
	return &TransformedReg{lr: lr, transform: func(x float64) float64 { return 1 / x }}, nil //lint:allow hotpath one result struct per regression fit; part of the committed allocs/op floor
}

// FitLog fits y = a + b*ln(x) (the paper's "logarithmic regression").
// All x must be positive.
func FitLog(xs, ys []float64) (*TransformedReg, error) {
	tx := make([]float64, len(xs)) //lint:allow hotpath one transformed-regressor slice per fit; part of the committed allocs/op floor
	for i, x := range xs {
		if x <= 0 {
			return nil, ErrInsufficientData
		}
		tx[i] = math.Log(x)
	}
	lr, err := FitLinear(tx, ys)
	if err != nil {
		return nil, err
	}
	return &TransformedReg{lr: lr, transform: math.Log}, nil //lint:allow hotpath one result struct per regression fit; part of the committed allocs/op floor
}

// TransformedReg is a linear regression on a transformed regressor
// (1/x for the inverse regression, ln x for the logarithmic regression).
type TransformedReg struct {
	lr        *LinReg
	transform func(float64) float64
}

// Predict returns the point prediction at the untransformed x.
func (r *TransformedReg) Predict(x float64) float64 {
	return r.lr.Predict(r.transform(x))
}

// PredictInterval returns the prediction and prediction-interval half-width
// at the untransformed x.
func (r *TransformedReg) PredictInterval(x, level float64) (pred, half float64) {
	return r.lr.PredictInterval(r.transform(x), level)
}

// WeightedLinReg holds a weighted least-squares fit y = Intercept + Slope*x.
// Gibbons's predictor performs a weighted linear regression on the
// (mean nodes, mean run time) of each subcategory, weighting each pair by
// the inverse of the run-time variance of the subcategory (§2.2).
type WeightedLinReg struct {
	Slope, Intercept float64
	N                int
}

// FitWeightedLinear fits y = a + b*x minimizing Σ w_i (y_i - a - b x_i)².
// Weights must be positive; at least two points with distinct x are needed.
func FitWeightedLinear(xs, ys, ws []float64) (*WeightedLinReg, error) {
	n := len(xs)
	if n != len(ys) || n != len(ws) || n < 2 {
		return nil, ErrInsufficientData
	}
	var sw, swx, swy float64
	for i := range xs {
		if ws[i] <= 0 || math.IsNaN(ws[i]) || math.IsInf(ws[i], 0) {
			return nil, ErrInsufficientData
		}
		sw += ws[i]
		swx += ws[i] * xs[i]
		swy += ws[i] * ys[i]
	}
	xm := swx / sw
	ym := swy / sw
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - xm
		sxx += ws[i] * dx * dx
		sxy += ws[i] * dx * (ys[i] - ym)
	}
	if sxx == 0 {
		return nil, ErrInsufficientData
	}
	b := sxy / sxx
	return &WeightedLinReg{Slope: b, Intercept: ym - b*xm, N: n}, nil
}

// Predict returns the point prediction at x.
func (r *WeightedLinReg) Predict(x float64) float64 {
	return r.Intercept + r.Slope*x
}
