// Package downey implements Downey's run-time predictor (Downey, IPPS 1997,
// as summarized in §2.2 of the reproduced paper), the second baseline.
//
// Downey categorizes applications by submission queue, models the cumulative
// distribution of run times in each category with the log-linear form
//
//	F(t) = β0 + β1·ln t,
//
// and predicts from the fitted distribution conditioned on the job's current
// age a:
//
//	conditional median  = sqrt(a · e^((1.0−β0)/β1))
//	conditional average = (tmax − a) / (ln tmax − ln a),  tmax = e^((1.0−β0)/β1)
//
// For a queued job (a = 0) the formulas are evaluated at a = 1 second, which
// reduces them to the unconditional median sqrt(tmax) and the unconditional
// mean of the fitted log-uniform distribution, (tmax−1)/ln tmax.
package downey

import (
	"math"
	"sort"

	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Mode selects between Downey's two estimators.
type Mode int

const (
	// ConditionalMedian is the median lifetime estimator (Table 9 / 15).
	ConditionalMedian Mode = iota
	// ConditionalAverage is the average lifetime estimator (Table 8 / 14).
	ConditionalAverage
)

// minPoints is the fewest completed jobs a category needs before its
// distribution fit is considered valid.
const minPoints = 8

// refitInterval controls how stale a fit may get: a category is first fitted
// at its minPoints-th observation and refitted after every refitInterval
// observations from then on.
const refitInterval = 32

// maxHistory bounds the run times a category keeps, as the core
// predictor's largest template history does: a fit uses the most recent
// maxHistory observations, so memory and refit cost stay bounded however
// long a daemon feeds the predictor.
const maxHistory = 16384

// category models one queue's run-time distribution. The fit is made in add,
// never in predict, so it depends only on the observations and not on how
// often the category was asked.
type category struct {
	runTimes []float64 // ring of the last maxHistory run times
	n        int       // observations ever added; drives the refit cadence
	beta0    float64
	beta1    float64
	tmax     float64
	valid    bool
}

func (c *category) add(rt float64) {
	if len(c.runTimes) < maxHistory {
		c.runTimes = append(c.runTimes, rt)
	} else {
		c.runTimes[c.n%maxHistory] = rt
	}
	c.n++
	if c.n >= minPoints && (c.n-minPoints)%refitInterval == 0 {
		c.fit()
	}
}

// fit regresses the empirical CDF of the kept run times against ln t.
func (c *category) fit() {
	c.valid = false
	n := len(c.runTimes)
	sorted := append([]float64(nil), c.runTimes...)
	sort.Float64s(sorted)
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	for i, t := range sorted {
		if t < 1 {
			t = 1
		}
		xs = append(xs, math.Log(t))
		ys = append(ys, (float64(i)+0.5)/float64(n))
	}
	r, err := stats.FitLinear(xs, ys)
	if err != nil || r.Slope <= 0 {
		// A non-increasing CDF fit means the category is degenerate
		// (e.g. all identical run times); no valid prediction.
		return
	}
	c.beta0 = r.Intercept
	c.beta1 = r.Slope
	c.tmax = math.Exp((1.0 - c.beta0) / c.beta1)
	if math.IsInf(c.tmax, 0) || math.IsNaN(c.tmax) || c.tmax < 1 {
		return
	}
	c.valid = true
}

// predict evaluates the conditional estimator at age a.
func (c *category) predict(mode Mode, age int64) (float64, bool) {
	if !c.valid {
		return 0, false
	}
	a := float64(age)
	if a < 1 {
		a = 1
	}
	if a >= c.tmax {
		// The job has outlived the fitted distribution; the best the model
		// can say is "it ends imminently".
		return a + 1, true
	}
	switch mode {
	case ConditionalMedian:
		return math.Sqrt(a * c.tmax), true
	case ConditionalAverage:
		den := math.Log(c.tmax) - math.Log(a)
		if den <= 0 {
			return 0, false
		}
		return (c.tmax - a) / den, true
	}
	return 0, false
}

// Predictor implements Downey's technique for one estimator mode.
type Predictor struct {
	mode Mode
	cats map[string]*category
}

// New creates an empty Downey predictor with the given mode.
func New(mode Mode) *Predictor {
	return &Predictor{mode: mode, cats: make(map[string]*category)}
}

// Name implements predict.Predictor.
func (d *Predictor) Name() string {
	if d.mode == ConditionalMedian {
		return "downey-med"
	}
	return "downey-avg"
}

// key categorizes by queue; traces without queues share one category,
// matching Downey's note that other characteristics could be used.
func key(j *workload.Job) string { return j.Queue }

// Predict implements predict.Predictor.
func (d *Predictor) Predict(j *workload.Job, age int64) (int64, bool) {
	c, ok := d.cats[key(j)]
	if !ok {
		return 0, false
	}
	v, ok := c.predict(d.mode, age)
	if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	r := int64(math.Round(v))
	if r < 1 {
		r = 1
	}
	return r, true
}

// Observe implements predict.Predictor.
func (d *Predictor) Observe(j *workload.Job) {
	c, ok := d.cats[key(j)]
	if !ok {
		c = &category{}
		d.cats[key(j)] = c
	}
	c.add(float64(j.RunTime))
}

// Static checks.
var _ predict.Predictor = (*Predictor)(nil)
