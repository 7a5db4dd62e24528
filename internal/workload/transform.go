package workload

import (
	"fmt"
	"math/rand"
)

// This file provides trace transformations used in scheduling research
// workflows: slicing a window out of a long trace, truncation, and the
// failure and drift injections (Compress, in profiles.go, is the §4
// interarrival transformation).

// Window returns a deep copy containing the jobs submitted in [from, to),
// with submit times rebased so the first job arrives at zero.
func (w *Workload) Window(from, to int64) *Workload {
	c := w.Clone()
	var jobs []*Job
	for _, j := range c.Jobs {
		if j.SubmitTime >= from && j.SubmitTime < to {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) > 0 {
		base := jobs[0].SubmitTime
		for _, j := range jobs {
			j.SubmitTime -= base
		}
	}
	c.Jobs = jobs
	c.Name = fmt.Sprintf("%s[%d:%d)", w.Name, from, to)
	return c
}

// Head returns a deep copy containing only the first n jobs (all jobs when
// n exceeds the trace length).
func (w *Workload) Head(n int) *Workload {
	c := w.Clone()
	if n < 0 {
		n = 0
	}
	if n > len(c.Jobs) {
		n = len(c.Jobs)
	}
	c.Jobs = c.Jobs[:n]
	c.Name = fmt.Sprintf("%s[:%d]", w.Name, n)
	return c
}

// InjectCancellations returns a deep copy in which each job independently
// becomes cancellable with probability frac: if it has not started within
// an exponentially distributed patience (mean patienceMean seconds, floored
// at one minute), the user withdraws it. This is the failure-injection knob
// for exercising schedulers and predictors against the queue withdrawals
// that production traces contain.
func (w *Workload) InjectCancellations(frac float64, patienceMean int64, seed int64) *Workload {
	c := w.Clone()
	if frac <= 0 || patienceMean <= 0 {
		return c
	}
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for _, j := range c.Jobs {
		if rng.Float64() < frac {
			patience := int64(rng.ExpFloat64() * float64(patienceMean))
			if patience < 60 {
				patience = 60
			}
			j.CancelAfter = patience
			n++
		}
	}
	c.Name = fmt.Sprintf("%s/cancel=%.0f%%", w.Name, frac*100)
	return c
}

// InjectRuntimeStep returns a deep copy with a regime change at job index
// at (submit order): every later job that carries a maximum run time has
// its run time replaced by fill·MaxRunTime (clamped to [1, MaxRunTime]).
// A predictor trained on the pre-step regime — where users typically use
// a small fraction of their limit — suddenly under-predicts by most of
// the limit, which is the drift the re-selection controller exists to
// catch: after the step, the maximum-run-time predictor is near-exact by
// construction. Jobs without a limit are left untouched.
func (w *Workload) InjectRuntimeStep(at int, fill float64) *Workload {
	c := w.Clone()
	if at < 0 || at >= len(c.Jobs) || fill <= 0 {
		return c
	}
	for _, j := range c.Jobs[at:] {
		if j.MaxRunTime <= 0 {
			continue
		}
		rt := int64(fill * float64(j.MaxRunTime))
		if rt < 1 {
			rt = 1
		}
		if rt > j.MaxRunTime {
			rt = j.MaxRunTime
		}
		j.RunTime = rt
	}
	c.Name = fmt.Sprintf("%s/step@%d fill=%.2f", w.Name, at, fill)
	return c
}
