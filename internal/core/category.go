package core

import (
	"math"

	"repro/internal/histstore"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Categories are histstore.Category values: a bounded ring of points with
// incremental Welford moments. They live inside a sharded (optionally
// durable) histstore.Store, and this file's estimate logic runs on
// immutable category snapshots obtained from lock-free atomic pointer
// loads.

// pointOf converts a completed job to its category contribution.
func pointOf(j *workload.Job) histstore.Point {
	p := histstore.Point{
		RunTime: float64(j.RunTime),
		Ratio:   math.NaN(),
		Nodes:   float64(j.Nodes),
	}
	if j.MaxRunTime > 0 {
		p.Ratio = float64(j.RunTime) / float64(j.MaxRunTime)
	}
	return p
}

// estimateCategory computes the template's prediction from a category for
// a job requesting `nodes` nodes that has been running for `age` seconds,
// at the given confidence level. It returns the predicted value (in the
// template's value space: seconds for absolute templates, a max-run-time
// fraction for relative ones), the confidence-interval half-width in the
// same space, and whether the category could provide a valid prediction.
func estimateCategory(c *histstore.Category, t Template, nodes int, age int64, level float64) (pred, half float64, ok bool) {
	need := t.minPoints()
	if c.Size() < need {
		return 0, 0, false
	}
	if t.Pred != PredMean {
		return estimateRegression(c, t, nodes, age, level)
	}

	var mean, v float64
	var n int
	if !t.UseAge || age <= 0 {
		// Fast path: the aggregates finalized at observe time — no moment
		// arithmetic at all.
		if t.Relative {
			mean, v, n = c.RatStats()
		} else {
			mean, v, n = c.AbsStats()
		}
		if n < need || math.IsNaN(v) {
			return 0, 0, false
		}
	} else {
		// Age-conditioned mean, which every running job of a forward
		// simulation asks for: Welford's recurrence folded over the points
		// the job has not outlived, with exactly stats.MeanVar's
		// operations in exactly its order, so the result is bit-for-bit
		// stats.MeanCI over the collected samples without collecting them.
		var m2 float64
		c.ForEach(func(p histstore.Point) {
			if p.RunTime <= float64(age) {
				return
			}
			y := p.RunTime
			if t.Relative {
				y = p.Ratio
				if math.IsNaN(y) {
					return
				}
			}
			n++
			d := y - mean
			mean += d / float64(n)
			m2 += d * (y - mean)
		})
		if n < need {
			return 0, 0, false
		}
		v = m2 / float64(n-1)
	}
	if v == 0 { //lint:allow floatcmp exact-zero variance guard for a category of identical run times
		return mean, 0, true
	}
	tq := stats.TQuantile(0.5+level/2, float64(n-1))
	return mean, tq * math.Sqrt(v/float64(n)), true
}

// estimateRegression is estimateCategory for the regression prediction
// types: it collects the (nodes, value) samples the template admits and
// fits the regression the template names.
func estimateRegression(c *histstore.Category, t Template, nodes int, age int64, level float64) (pred, half float64, ok bool) {
	filterAge := t.UseAge && age > 0
	size := c.Size()
	buf := make([]float64, 2*size) //lint:allow hotpath regression templates fit over collected samples; one exact-size buffer per fit, never reached by mean templates
	ys, xs := buf[:size], buf[size:]
	k := 0
	c.ForEach(func(p histstore.Point) {
		if filterAge && p.RunTime <= float64(age) {
			return
		}
		y := p.RunTime
		if t.Relative {
			y = p.Ratio
			if math.IsNaN(y) {
				return
			}
		}
		ys[k], xs[k] = y, p.Nodes
		k++
	})
	if k < t.minPoints() {
		return 0, 0, false
	}
	ys, xs = ys[:k], xs[:k]

	switch t.Pred {
	case PredLinear:
		r, err := stats.FitLinear(xs, ys)
		if err != nil {
			return 0, 0, false
		}
		pred, half = r.PredictInterval(float64(nodes), level)
	case PredInverse:
		r, err := stats.FitInverse(xs, ys)
		if err != nil {
			return 0, 0, false
		}
		pred, half = r.PredictInterval(float64(nodes), level)
	case PredLog:
		r, err := stats.FitLog(xs, ys)
		if err != nil {
			return 0, 0, false
		}
		pred, half = r.PredictInterval(float64(nodes), level)
	default:
		return 0, 0, false
	}
	if math.IsNaN(pred) || math.IsInf(pred, 0) || math.IsNaN(half) || math.IsInf(half, 0) {
		return 0, 0, false
	}
	return pred, half, true
}
