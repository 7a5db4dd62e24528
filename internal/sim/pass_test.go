package sim_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/predict"
	"repro/internal/predict/downey"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// referenceRun is sim.Run's event loop without the skip of passes in which
// no queued job fits: it asks the policy at every pass. It keeps its running
// jobs in a sim.Machine but never calls Schedule. It handles what the
// workloads of TestSkippedPassesAreExact hold: completions, which pred
// observes, arrivals and scheduling passes.
func referenceRun(w *workload.Workload, pol sim.Policy, pred predict.Predictor) ([]*workload.Job, error) {
	jobs := w.Clone().Jobs
	m := sim.Machine{Nodes: w.MachineNodes, Free: w.MachineNodes}
	var queue []*workload.Job
	est := func(j *workload.Job, age int64) int64 {
		return predict.Estimate(pred, j, age, predict.DefaultRuntime)
	}
	for next := 0; next < len(jobs) || len(m.Running) > 0 || len(queue) > 0; {
		now := int64(math.MaxInt64)
		if len(m.Running) > 0 {
			now = m.Running[0].EndTime
		}
		if next < len(jobs) && jobs[next].SubmitTime < now {
			now = jobs[next].SubmitTime
		}
		if now == math.MaxInt64 {
			return nil, errors.New("wedged")
		}
		for j := m.Finish(now); j != nil; j = m.Finish(now) {
			pred.Observe(j)
		}
		for ; next < len(jobs) && jobs[next].SubmitTime == now; next++ {
			queue = append(queue, jobs[next])
		}
		for len(queue) > 0 {
			picked := pol.Pick(now, queue, m.Running, m.Free, m.Nodes, est)
			if len(picked) == 0 {
				break
			}
			for _, j := range picked {
				if j.Nodes > m.Free {
					return nil, errors.New("overpick")
				}
				j.StartTime, j.EndTime = now, now+j.RunTime
				queue = slices.DeleteFunc(queue, func(q *workload.Job) bool { return q == j })
				m.Start(j)
			}
		}
	}
	return jobs, nil
}

// passWorkload is a random workload on a 16-node machine whose jobs need
// power-of-two node counts, so passes in which only an exact fit
// (Nodes == free) can start are common. Two queues give Downey's
// predictor two categories.
func passWorkload(seed int64) *workload.Workload {
	classes := []string{"", "interactive", "standard", "batch"}
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*workload.Job, 60+rng.Intn(60))
	var t int64
	for i := range jobs {
		t += int64(rng.Intn(400))
		rt := int64(1 + rng.Intn(3000))
		jobs[i] = &workload.Job{
			ID:         i + 1,
			Queue:      string(rune('p' + rng.Intn(2))),
			Class:      classes[rng.Intn(len(classes))],
			Nodes:      1 << rng.Intn(5),
			SubmitTime: t,
			RunTime:    rt,
			MaxRunTime: rt + int64(rng.Intn(3000)),
		}
	}
	return &workload.Workload{Name: "pass", MachineNodes: 16, Jobs: jobs, HasMaxRT: true}
}

// TestSkippedPassesAreExact checks that skipping the scheduling passes in
// which no queued job fits changes no schedule: on random workloads, for
// every sched.ByName policy and for the oracle, maximum run times and
// Downey's predictor, sim.Run starts every job when a loop that asks the
// policy at every pass starts it. Downey's predictor learns from the
// completions, so the check also holds its Predict to having no side
// effects: a skipped pass asks it nothing.
func TestSkippedPassesAreExact(t *testing.T) {
	policies := []string{"FCFS", "LWF", "LWF/blocking", "Backfill", "Backfill/EASY", "SJF", "SJF/blocking", "Priority"}
	preds := []func() predict.Predictor{
		func() predict.Predictor { return predict.Oracle{} },
		func() predict.Predictor { return predict.MaxRuntime{} },
		func() predict.Predictor { return downey.New(downey.ConditionalAverage) },
	}
	for seed := int64(1); seed <= 30; seed++ {
		w := passWorkload(seed)
		for _, name := range policies {
			for _, mk := range preds {
				ref, rerr := referenceRun(w, sched.ByName(name), mk())
				res, err := sim.Run(w, sched.ByName(name), mk(), sim.Options{})
				if err != nil || rerr != nil {
					t.Fatalf("seed %d, %s, %s: sim.Run error %v; every-pass reference error %v",
						seed, name, mk().Name(), err, rerr)
				}
				for i, j := range res.Jobs {
					if j.StartTime != ref[i].StartTime {
						t.Fatalf("seed %d, %s, %s: job %d starts at %d; every-pass reference starts it at %d",
							seed, name, mk().Name(), j.ID, j.StartTime, ref[i].StartTime)
					}
				}
			}
		}
	}
}
