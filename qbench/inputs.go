package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// wire converts a job to the form a scheduler would send: identity,
// request shape and (for running jobs) start time. A queued or running
// job's actual run time is unknown to the scheduler and is left out
// unless withRunTime is set (a completion report).
func wire(j *workload.Job, running, withRunTime bool) service.JobJSON {
	out := service.JobJSON{
		ID: j.ID, Type: j.Type, Queue: j.Queue, Class: j.Class, User: j.User,
		Script: j.Script, Executable: j.Executable, Arguments: j.Arguments,
		NetAdaptor: j.NetAdaptor, Nodes: j.Nodes, SubmitTime: j.SubmitTime,
		MaxRunTime: j.MaxRunTime,
	}
	if running {
		out.StartTime = j.StartTime
	}
	if withRunTime {
		out.RunTime = j.RunTime
	}
	return out
}

// unwire is the service's own conversion from wire form to the model.
func unwire(j *service.JobJSON) *workload.Job {
	return &workload.Job{
		ID: j.ID, Type: j.Type, Queue: j.Queue, Class: j.Class, User: j.User,
		Script: j.Script, Executable: j.Executable, Arguments: j.Arguments,
		NetAdaptor: j.NetAdaptor, Nodes: j.Nodes, SubmitTime: j.SubmitTime,
		RunTime: j.RunTime, MaxRunTime: j.MaxRunTime, StartTime: j.StartTime,
	}
}

func unwireAll(js []service.JobJSON) []*workload.Job {
	out := make([]*workload.Job, len(js))
	for i := range js {
		out[i] = unwire(&js[i])
	}
	return out
}

// snapshot is the scheduler state at one submission: the submitted job,
// the queue in arrival order (including it) and the running set.
type snapshot struct {
	now     int64
	target  service.JobJSON
	queue   []service.JobJSON
	running []service.JobJSON
}

// captureSnapshots replays w under Backfill scheduled by maximum run times
// (the deployed configuration the paper assumes) and records the scheduler
// state at every submission of the jobs in want.
func captureSnapshots(w *workload.Workload, want map[int]bool) ([]snapshot, error) {
	var snaps []snapshot
	_, err := sim.Run(w, sched.Backfill{}, predict.MaxRuntime{}, sim.Options{
		OnSubmit: func(now int64, j *workload.Job, queue, running []*workload.Job) {
			if !want[j.ID] {
				return
			}
			s := snapshot{now: now, target: wire(j, false, false),
				queue:   make([]service.JobJSON, len(queue)),
				running: make([]service.JobJSON, len(running))}
			for i, q := range queue {
				s.queue[i] = wire(q, false, false)
			}
			for i, r := range running {
				s.running[i] = wire(r, true, false)
			}
			snaps = append(snaps, s)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("capturing queue snapshots of %s: %w", w.Name, err)
	}
	return snaps, nil
}

// pickSnapshots draws n snapshots uniformly, with replacement, so the
// queue depths the requests carry follow the served trace's own.
func pickSnapshots(rng *rand.Rand, snaps []snapshot, n int) []*snapshot {
	out := make([]*snapshot, n)
	for k := range out {
		out[k] = &snaps[rng.Intn(len(snaps))]
	}
	return out
}

// depthNote returns the median queue depth of the picked snapshots and a
// note with their p90 and maximum.
func depthNote(picked []*snapshot) (float64, string) {
	d := make([]float64, len(picked))
	for i, s := range picked {
		d[i] = float64(len(s.queue))
	}
	sort.Float64s(d)
	return quantile(d, 0.5), fmt.Sprintf("p90=%.0f max=%.0f over %d snapshots", quantile(d, 0.9), quantile(d, 1), len(d))
}

// halves splits a trace into its first-half completions (the warm-up
// history) and its second-half jobs (the traffic), in trace order.
func halves(w *workload.Workload) (first, second []*workload.Job) {
	h := len(w.Jobs) / 2
	return w.Jobs[:h], w.Jobs[h:]
}

func idSet(jobs []*workload.Job) map[int]bool {
	out := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		out[j.ID] = true
	}
	return out
}
