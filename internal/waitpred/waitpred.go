// Package waitpred implements the paper's queue wait-time prediction
// technique (§3): "perform a scheduling simulation using the predicted run
// times as the run times of the applications", yielding the time at which a
// newly submitted application will start to execute.
//
// The prediction uses only the scheduler state visible at submission time —
// the running applications (with their ages) and the queued applications.
// Applications that arrive later are unknown, which is exactly the paper's
// built-in error: later arrivals can overtake queued work under LWF (large
// error, 34–43% even with perfect run times) and, more rarely, under
// backfill (3–4%); under FCFS they cannot (zero error with perfect run
// times).
package waitpred

import (
	"context"
	"fmt"

	"repro/internal/obs/trace"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PredictStartCtx simulates the scheduler forward from the given state and
// returns the predicted start time of target (see predictStart). Under a
// trace active in ctx the forward simulation is recorded as a
// "waitpred.simulate" child span, with the policy and the scheduler-state
// sizes as attributes.
func PredictStartCtx(ctx context.Context, now int64, target *workload.Job,
	queue, running []*workload.Job, totalNodes int, pol sim.Policy,
	pred predict.Predictor, decision predict.Predictor, defaultRT int64) (int64, error) {

	_, sp := trace.StartSpan(ctx, "waitpred.simulate")
	if sp == nil {
		return predictStart(now, target, queue, running, totalNodes, pol, pred, decision, defaultRT)
	}
	sp.SetAttr("policy", pol.Name())
	sp.SetAttrInt("queued", int64(len(queue)))
	sp.SetAttrInt("running", int64(len(running)))
	start, err := predictStart(now, target, queue, running, totalNodes, pol, pred, decision, defaultRT)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return start, err
}

// predictStart simulates the scheduler forward from the given state and
// returns the predicted start time of target. target must be an element of
// queue; totalNodes is the machine size. The inputs are not modified.
//
// Two run-time sources drive the virtual simulation, mirroring the paper's
// setup:
//
//   - pred (the predictor under test) supplies the ASSUMED DURATIONS of the
//     running and queued applications — "a scheduling simulation using the
//     predicted run times as the run times of the applications" (§3);
//   - decision supplies the estimates the SIMULATED SCHEDULER uses for its
//     decisions, which must match what the real scheduler uses (maximum run
//     times in the paper's deployed configuration — §3 attributes the small
//     residual backfill error to "scheduling [being] performed using maximum
//     run times"). Pass nil to use pred for decisions as well.
func predictStart(now int64, target *workload.Job, queue, running []*workload.Job,
	totalNodes int, pol sim.Policy, pred predict.Predictor, decision predict.Predictor,
	defaultRT int64) (int64, error) {

	if defaultRT <= 0 {
		defaultRT = predict.DefaultRuntime
	}
	if decision == nil {
		decision = pred
	}

	// Clone the state into one backing array, queued jobs first.
	clones := make([]workload.Job, len(queue)+len(running))
	m := sim.Machine{
		Nodes:   totalNodes,
		Free:    totalNodes,
		Queue:   make([]*workload.Job, len(queue)),
		Running: make([]*workload.Job, 0, len(running)+len(queue)),
	}
	var vtarget *workload.Job
	for i, j := range queue {
		c := &clones[i]
		*c = *j.Clone()
		m.Queue[i] = c
		if j == target {
			vtarget = c
		}
	}
	if vtarget == nil {
		return 0, fmt.Errorf("waitpred: target job %d not in queue", target.ID)
	}
	for i, r := range running {
		c := &clones[len(queue)+i]
		*c = *r.Clone()
		c.StartTime = r.StartTime
		age := now - r.StartTime
		total := predict.Estimate(pred, r, age, defaultRT)
		c.EndTime = r.StartTime + total
		if c.EndTime <= now {
			c.EndTime = now + 1
		}
		m.Start(c)
	}
	if m.Free < 0 {
		return 0, fmt.Errorf("waitpred: running jobs exceed machine size")
	}

	// The simulated scheduler sees the decision predictor's estimates, just
	// as the real scheduler does. A queued job runs for pred's estimate at
	// submission, asked when it starts: Predict has no side effects, so that
	// is what asking up front would give.
	est := func(j *workload.Job, age int64) int64 {
		return predict.Estimate(decision, j, age, defaultRT)
	}
	assumed := func(j *workload.Job) int64 {
		return predict.Estimate(pred, j, 0, defaultRT)
	}
	isTarget := func(j *workload.Job) bool { return j == vtarget }

	t := now
	for steps := 0; ; steps++ {
		if steps > 4*(len(queue)+len(running))+16 {
			return 0, fmt.Errorf("waitpred: virtual simulation did not converge")
		}
		stopped, err := m.Schedule(t, pol, est, assumed, isTarget)
		if err != nil {
			return 0, fmt.Errorf("waitpred: virtual simulation: %w", err)
		}
		if stopped {
			return t, nil
		}
		if len(m.Running) == 0 {
			return 0, fmt.Errorf("waitpred: policy %s wedged in virtual simulation with %d queued",
				pol.Name(), len(m.Queue))
		}
		// Advance to the next assumed completion.
		t = m.Running[0].EndTime
		for m.Finish(t) != nil {
		}
	}
}

// PredictWait is PredictStartCtx expressed as a wait: predicted start minus the
// target's submission time.
func PredictWait(now int64, target *workload.Job, queue, running []*workload.Job,
	totalNodes int, pol sim.Policy, pred predict.Predictor, decision predict.Predictor,
	defaultRT int64) (int64, error) {
	start, err := predictStart(now, target, queue, running, totalNodes, pol, pred, decision, defaultRT)
	if err != nil {
		return 0, err
	}
	return start - target.SubmitTime, nil
}
