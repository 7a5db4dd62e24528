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
	"container/heap"
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

// endHeap orders virtual running jobs by assumed end time (ties by ID).
type endHeap []*workload.Job

func (h endHeap) Len() int { return len(h) }
func (h endHeap) Less(i, j int) bool {
	if h[i].EndTime != h[j].EndTime {
		return h[i].EndTime < h[j].EndTime
	}
	return h[i].ID < h[j].ID
}
func (h endHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x interface{}) { *h = append(*h, x.(*workload.Job)) }
func (h *endHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
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

	// Clone the state into one backing array, queued jobs first. The
	// assumed total run time of the queued clone vq[i] is assumed[i]; the
	// two slices shrink together as jobs leave the virtual queue.
	clones := make([]workload.Job, len(queue)+len(running))
	vq := make([]*workload.Job, len(queue))
	assumed := make([]int64, len(queue))
	var vtarget *workload.Job
	for i, j := range queue {
		c := &clones[i]
		*c = *j.Clone()
		assumed[i] = predict.Estimate(pred, j, 0, defaultRT)
		vq[i] = c
		if j == target {
			vtarget = c
		}
	}
	if vtarget == nil {
		return 0, fmt.Errorf("waitpred: target job %d not in queue", target.ID)
	}
	vr := make(endHeap, 0, len(running)+len(queue))
	free := totalNodes
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
		heap.Push(&vr, c)
		free -= c.Nodes
	}
	if free < 0 {
		return 0, fmt.Errorf("waitpred: running jobs exceed machine size")
	}

	// The simulated scheduler sees the decision predictor's estimates, just
	// as the real scheduler does.
	est := func(j *workload.Job, age int64) int64 {
		return predict.Estimate(decision, j, age, defaultRT)
	}

	// take removes j from the virtual queue and returns its assumed run
	// time.
	take := func(j *workload.Job) int64 {
		for i, q := range vq {
			if q == j {
				d := assumed[i]
				vq = append(vq[:i], vq[i+1:]...)
				assumed = append(assumed[:i], assumed[i+1:]...)
				return d
			}
		}
		return 0
	}

	t := now
	for steps := 0; ; steps++ {
		if steps > 4*(len(queue)+len(running))+16 {
			return 0, fmt.Errorf("waitpred: virtual simulation did not converge")
		}
		// Scheduling passes at time t. A pass in which no queued job fits
		// in the free nodes cannot start anything under any policy (an
		// overpick is an error below), so it is skipped.
		for anyFits(vq, free) {
			picked := pol.Pick(t, vq, vr, free, totalNodes, est)
			if len(picked) == 0 {
				break
			}
			for _, j := range picked {
				if j == vtarget {
					return t, nil
				}
				if j.Nodes > free {
					return 0, fmt.Errorf("waitpred: policy overpicked in virtual simulation")
				}
				free -= j.Nodes
				j.StartTime = t
				j.EndTime = t + take(j)
				heap.Push(&vr, j)
			}
		}
		if len(vr) == 0 {
			return 0, fmt.Errorf("waitpred: policy %s wedged in virtual simulation with %d queued",
				pol.Name(), len(vq))
		}
		// Advance to the next assumed completion.
		t = vr[0].EndTime
		for len(vr) > 0 && vr[0].EndTime == t {
			j := heap.Pop(&vr).(*workload.Job)
			free += j.Nodes
		}
	}
}

// anyFits reports whether some queued job needs no more than free nodes.
func anyFits(queue []*workload.Job, free int) bool {
	for _, j := range queue {
		if j.Nodes <= free {
			return true
		}
	}
	return false
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
