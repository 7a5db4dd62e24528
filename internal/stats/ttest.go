package stats

import "math"

// TTestResult reports a two-sample Welch t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchT performs Welch's two-sample t-test for a difference in means
// between xs and ys (unequal variances, unpaired). It returns
// ErrInsufficientData when either sample has fewer than two points or both
// variances are zero.
//
// The replication harness uses it to ask whether a predictor's mean-wait
// advantage over another survives the seed-to-seed noise of the synthetic
// workloads.
func WelchT(xs, ys []float64) (TTestResult, error) {
	if len(xs) < 2 || len(ys) < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	mx, vx := MeanVar(xs)
	my, vy := MeanVar(ys)
	return welchFromSummary(mx, vx, float64(len(xs)), my, vy, float64(len(ys)))
}

// WelchTMoments is WelchT computed from streaming summaries instead of
// retained samples: the online accuracy tracker tests its recent error
// window against the lifetime baseline without holding either sample in
// memory. Both aggregates need at least two points.
func WelchTMoments(x, y Moments) (TTestResult, error) {
	if x.N < 2 || y.N < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	mx, vx := x.MeanVar()
	my, vy := y.MeanVar()
	return welchFromSummary(mx, vx, float64(x.N), my, vy, float64(y.N))
}

// welchFromSummary is the shared Welch machinery over (mean, variance, n)
// summaries; WelchT and WelchTMoments differ only in how they summarize.
func welchFromSummary(mx, vx, nx, my, vy, ny float64) (TTestResult, error) {
	se2 := vx/nx + vy/ny
	if se2 <= 0 {
		if mx == my {
			// Identical constants: no evidence of difference.
			return TTestResult{T: 0, DF: nx + ny - 2, P: 1}, nil
		}
		return TTestResult{}, ErrInsufficientData
	}
	t := (mx - my) / math.Sqrt(se2)
	// Welch–Satterthwaite.
	num := se2 * se2
	den := (vx*vx)/(nx*nx*(nx-1)) + (vy*vy)/(ny*ny*(ny-1))
	df := num / den
	if math.IsNaN(df) || df < 1 {
		df = 1
	}
	p := 2 * TCDF(-math.Abs(t), df)
	return TTestResult{T: t, DF: df, P: p}, nil
}

// PairedT performs a paired t-test on the differences xs[i]-ys[i]
// (the replication harness draws paired workloads per seed, so the paired
// test is the sharper instrument).
func PairedT(xs, ys []float64) (TTestResult, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	diffs := make([]float64, len(xs))
	for i := range xs {
		diffs[i] = xs[i] - ys[i]
	}
	m, v := MeanVar(diffs)
	n := float64(len(diffs))
	if v <= 0 {
		if m == 0 {
			return TTestResult{T: 0, DF: n - 1, P: 1}, nil
		}
		// Constant nonzero difference: infinitely strong evidence.
		return TTestResult{T: math.Inf(sign(m)), DF: n - 1, P: 0}, nil
	}
	t := m / math.Sqrt(v/n)
	df := n - 1
	p := 2 * TCDF(-math.Abs(t), df)
	return TTestResult{T: t, DF: df, P: p}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
