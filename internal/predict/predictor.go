// Package predict defines the run-time predictor interface shared by the
// schedulers, the queue wait-time predictor, and the experiment harness,
// together with the two reference predictors of the paper's evaluation:
// the oracle (actual run times, Tables 4 and 10) and user-supplied maximum
// run times (Tables 5 and 11, the EASY-scheduler convention).
//
// The paper's own template-based predictor lives in internal/core; the
// Gibbons and Downey baselines live in subpackages of this package.
package predict

import (
	"repro/internal/workload"
)

// Predictor estimates application run times from whatever history it has
// observed so far.
//
// Predict returns the predicted TOTAL run time in seconds for job j, given
// that the job has already been executing for age seconds (age == 0 for a
// queued job). Predictors that condition on age (Downey's, Gibbons's rtime
// templates, the core predictor's running-time attribute) use it to sharpen
// the estimate; others may ignore it. The boolean reports whether the
// predictor can make a valid prediction for this job; callers fall back
// (see Estimate) when it cannot. Predict must not change what later calls
// return: a prediction depends only on the jobs observed so far, never on
// how often or in what order Predict was called. The simulators rely on
// this to skip scheduling passes that cannot start a job.
//
// Observe incorporates a completed job into the predictor's history. The
// scheduling simulator calls Observe exactly once per job, at the job's
// completion time, matching the paper's step 3 ("at the time each
// application a completes execution").
type Predictor interface {
	Name() string
	Predict(j *workload.Job, age int64) (seconds int64, ok bool)
	Observe(j *workload.Job)
}

// Estimate produces a usable run-time estimate for scheduling: the
// predictor's output when valid, otherwise the user-supplied maximum run
// time, otherwise defaultRT.
//
// An estimate the job has ALREADY OUTLIVED (est ≤ age) is treated as
// invalid, not merely clamped: the job's survival proves the estimate
// wrong, and propagating "it ends any instant now" into a backfill profile
// collapses the backfill window and starves the queue. The fallback (the
// user-supplied maximum run time) is a true upper bound on the remaining
// occupancy.
//
// The result is clamped to at least age+1 (a job that has run for age
// seconds cannot have a smaller total) and, when the job carries a maximum
// run time, to at most that maximum (batch systems kill jobs at their
// limit, so no larger estimate is ever useful).
func Estimate(p Predictor, j *workload.Job, age int64, defaultRT int64) int64 {
	est, ok := p.Predict(j, age)
	if !ok || est <= 0 || est <= age {
		if j.MaxRunTime > 0 {
			est = j.MaxRunTime
		} else if defaultRT > age {
			est = defaultRT
		} else {
			est = 2 * (age + 1) // no limit to fall back on: double the age
		}
	}
	if j.MaxRunTime > 0 && est > j.MaxRunTime {
		est = j.MaxRunTime
	}
	if est < age+1 {
		est = age + 1
	}
	return est
}

// DefaultRuntime is the estimate of last resort when a job has neither a
// valid prediction nor a user-supplied maximum run time (30 minutes).
const DefaultRuntime int64 = 30 * 60

// Oracle predicts every job's run time exactly. It bounds the achievable
// performance of both the wait-time predictor (Table 4) and the schedulers
// (Table 10).
type Oracle struct{}

// Name implements Predictor.
func (Oracle) Name() string { return "actual" }

// Predict returns the job's actual run time.
func (Oracle) Predict(j *workload.Job, age int64) (int64, bool) { return j.RunTime, true }

// Observe is a no-op: the oracle needs no history.
func (Oracle) Observe(*workload.Job) {}

// MaxRuntime predicts every job's run time as its user-supplied maximum run
// time, the convention of production schedulers such as EASY (Tables 5 and
// 11). Jobs without a recorded maximum yield no prediction.
type MaxRuntime struct{}

// Name implements Predictor.
func (MaxRuntime) Name() string { return "maxrt" }

// Predict returns the job's user-supplied maximum run time.
func (MaxRuntime) Predict(j *workload.Job, age int64) (int64, bool) {
	if j.MaxRunTime <= 0 {
		return 0, false
	}
	return j.MaxRunTime, true
}

// Observe is a no-op: maximum run times need no history.
func (MaxRuntime) Observe(*workload.Job) {}

// RunningMean predicts every job's run time as the mean run time of all
// completed jobs. It is the simplest possible history-based predictor and
// serves as a sanity baseline in tests and ablations.
type RunningMean struct {
	n   int
	sum float64
}

// Name implements Predictor.
func (*RunningMean) Name() string { return "globalmean" }

// Predict returns the global mean of observed run times.
func (m *RunningMean) Predict(j *workload.Job, age int64) (int64, bool) {
	if m.n == 0 {
		return 0, false
	}
	return int64(m.sum / float64(m.n)), true
}

// Observe adds the completed job's run time to the global mean.
func (m *RunningMean) Observe(j *workload.Job) {
	m.n++
	m.sum += float64(j.RunTime)
}

// Static checks.
var (
	_ Predictor = Oracle{}
	_ Predictor = MaxRuntime{}
	_ Predictor = (*RunningMean)(nil)
)
