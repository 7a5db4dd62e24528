// Package sim implements the discrete-event scheduling simulator the paper
// uses for both of its studies: replaying a workload trace through a
// space-shared machine under a scheduling policy, with run-time predictions
// supplied by a pluggable predictor.
//
// The simulator's event loop mirrors the paper's description: scheduling
// decisions are (re)made whenever an application is enqueued or finishes;
// a predictor observes each application when it completes; predictions are
// requested whenever the policy needs an estimate.
package sim

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/accuracy"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Estimator returns a usable total-run-time estimate (seconds) for job j
// that has been executing for age seconds (age 0 for queued jobs).
// Estimates are always positive and never below age+1.
type Estimator func(j *workload.Job, age int64) int64

// Policy decides which queued jobs to start. Pick is called after every
// simulator event (submission or completion); it returns the jobs to start
// now, which must fit within free nodes. queue is in arrival order; running
// jobs have StartTime set. est provides run-time estimates for any job.
//
// Policies must be deterministic and must not retain the slices they are
// handed.
type Policy interface {
	Name() string
	Pick(now int64, queue, running []*workload.Job, free, total int, est Estimator) []*workload.Job
}

// Options configures a simulation run.
type Options struct {
	// DefaultRuntime is the estimate of last resort (see predict.Estimate).
	// Zero means predict.DefaultRuntime.
	DefaultRuntime int64
	// Admission, when non-nil, is consulted for every arriving job BEFORE
	// it joins the queue: the predictive-SLO control loop hooks here
	// (internal/admission), estimating the job's wait against the live
	// queue and running set and returning false to shed it. A shed job
	// never queues, never starts, is marked Shed, and is excluded from the
	// wait and utilization metrics (like a cancellation, but decided at
	// submission instead of by user patience). The queue and running
	// slices are snapshots owned by the callee only for the duration of
	// the call; the arriving job is not yet in queue.
	Admission func(now int64, j *workload.Job, queue, running []*workload.Job, free, total int) bool
	// OnShed, when non-nil, is invoked for every job the Admission hook
	// rejects.
	OnShed func(now int64, j *workload.Job)
	// OnSubmit, when non-nil, is invoked for every job immediately after it
	// joins the queue (before the scheduling pass). The wait-time prediction
	// experiments hook here: the paper predicts "the wait time of an
	// application when it is submitted". The slices are snapshots owned by
	// the callee only for the duration of the call.
	OnSubmit func(now int64, j *workload.Job, queue, running []*workload.Job)
	// OnStart, when non-nil, is invoked when a job begins execution.
	OnStart func(now int64, j *workload.Job)
	// OnFinish, when non-nil, is invoked when a job completes, before the
	// predictor observes it.
	OnFinish func(now int64, j *workload.Job)
	// OnCancel, when non-nil, is invoked when a queued job's CancelAfter
	// deadline expires and it is withdrawn.
	OnCancel func(now int64, j *workload.Job)
	// Metrics, when non-nil, receives the run's instrumentation: counters
	// sim.events / sim.arrivals / sim.starts / sim.completions /
	// sim.cancellations / sim.predictions, the live gauge sim.clock_seconds,
	// and at completion sim.wall_seconds and sim.events_per_second (simulator
	// throughput in events per wall-clock second).
	Metrics *obs.Registry
	// Accuracy, when non-nil, scores every completion: the prediction the
	// predictor makes for the job immediately before observing it, against
	// the job's actual run time, recorded under the workload's name — the
	// paper's Tables 4–9 error columns accumulated during the run. Jobs
	// the predictor cannot predict are skipped, matching the tables (they
	// score only predicted applications).
	Accuracy *accuracy.Tracker
	// Now supplies wall-clock readings for the throughput metrics above.
	// The engine itself runs entirely on the simulated clock, so the
	// default is a frozen clock (sim.wall_seconds stays zero and
	// sim.events_per_second is skipped); callers that want real throughput
	// numbers inject time.Now at the edge, as cmd/ does. repolint's
	// wallclock check keeps time.Now out of this package.
	Now func() time.Time
}

// simMetrics caches the engine's instrument handles so the event loop pays
// one nil check plus atomic adds, nothing more.
type simMetrics struct {
	events, arrivals, starts, completions, cancellations, shed *obs.Counter
	clock                                                      *obs.Gauge
}

func newSimMetrics(reg *obs.Registry) *simMetrics {
	if reg == nil {
		return nil
	}
	return &simMetrics{
		events:        reg.Counter("sim.events"),
		arrivals:      reg.Counter("sim.arrivals"),
		starts:        reg.Counter("sim.starts"),
		completions:   reg.Counter("sim.completions"),
		cancellations: reg.Counter("sim.cancellations"),
		shed:          reg.Counter("sim.shed"),
		clock:         reg.Gauge("sim.clock_seconds"),
	}
}

// Result summarizes a completed simulation.
type Result struct {
	Policy    string
	Predictor string
	Workload  string

	Jobs []*workload.Job // every job, with StartTime/EndTime assigned

	// Utilization is Σ(nodes×runtime)/(machineNodes×makespan), with the
	// makespan measured from the first submission to the last completion
	// (the definition behind Table 10's "Utilization" column).
	Utilization float64
	// MeanWaitSec is the mean of (start − submit) over all jobs.
	MeanWaitSec float64
	// MaxWaitSec is the largest wait observed.
	MaxWaitSec int64
	// MakespanSec spans first submission to last completion.
	MakespanSec int64
	// Predictions counts the estimator calls the policy actually made
	// (predictor load). Passes in which no queued job fits are skipped
	// without asking the policy, so they add none.
	Predictions int64
	// Cancelled counts jobs withdrawn from the queue before starting;
	// they are excluded from the wait and utilization metrics.
	Cancelled int
	// Shed counts jobs the Admission hook rejected at submission; like
	// cancelled jobs they never start and are excluded from the wait and
	// utilization metrics.
	Shed int
	// WaitDist summarizes the wait-time distribution in seconds (mean,
	// quantiles); tail behaviour distinguishes policies whose mean waits
	// coincide.
	WaitDist stats.Summary
}

// MeanWaitMinutes returns the mean wait time in minutes, the unit of the
// paper's tables.
func (r *Result) MeanWaitMinutes() float64 { return r.MeanWaitSec / 60 }

// cancelEntry schedules a queued job's cancellation deadline.
type cancelEntry struct {
	deadline int64
	job      *workload.Job
}

// cancelHeap orders cancellation deadlines (ties by job ID).
type cancelHeap []cancelEntry

func (h cancelHeap) Len() int { return len(h) }
func (h cancelHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].job.ID < h[j].job.ID
}
func (h cancelHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cancelHeap) Push(x interface{}) { *h = append(*h, x.(cancelEntry)) }
func (h *cancelHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run replays the workload through the policy with run-time estimates from
// the predictor. The input workload is not modified; the result holds
// scheduled copies of the jobs.
func Run(w *workload.Workload, pol Policy, pred predict.Predictor, opts Options) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	defaultRT := opts.DefaultRuntime
	if defaultRT <= 0 {
		defaultRT = predict.DefaultRuntime
	}

	wallNow := opts.Now
	if wallNow == nil {
		wallNow = func() time.Time { return time.Time{} } // frozen clock: deterministic by default
	}
	wallStart := wallNow()
	met := newSimMetrics(opts.Metrics)
	wc := w.Clone()
	jobs := wc.Jobs
	res := &Result{
		Policy:    pol.Name(),
		Predictor: pred.Name(),
		Workload:  w.Name,
		Jobs:      jobs,
	}
	est := func(j *workload.Job, age int64) int64 {
		res.Predictions++
		return predict.Estimate(pred, j, age, defaultRT)
	}

	var (
		m       = Machine{Nodes: wc.MachineNodes, Free: wc.MachineNodes}
		cancels cancelHeap
		nextJob = 0
		now     int64
	)
	if len(jobs) == 0 {
		return res, nil
	}
	now = jobs[0].SubmitTime
	started := func(j *workload.Job) bool {
		if opts.OnStart != nil {
			opts.OnStart(now, j)
		}
		if met != nil {
			met.starts.Inc()
		}
		return false
	}

	for nextJob < len(jobs) || len(m.Running) > 0 || len(m.Queue) > 0 {
		// Advance the clock to the next event: completion, arrival, or
		// cancellation deadline.
		next := int64(1<<62 - 1)
		haveEvent := false
		if len(m.Running) > 0 {
			next, haveEvent = m.Running[0].EndTime, true
		}
		if nextJob < len(jobs) && jobs[nextJob].SubmitTime < next {
			next, haveEvent = jobs[nextJob].SubmitTime, true
		}
		if len(cancels) > 0 && cancels[0].deadline < next {
			// Stale entries for already-started jobs advance the clock
			// harmlessly; they are skipped below.
			next, haveEvent = cancels[0].deadline, true
		}
		if !haveEvent {
			// Jobs remain queued but nothing is running, nothing will
			// arrive, and no cancellation is pending: the policy has wedged
			// (it refuses to start a job that could run on the idle
			// machine).
			return nil, fmt.Errorf("sim: policy %s wedged with %d queued jobs on an idle machine",
				pol.Name(), len(m.Queue))
		}
		now = next
		if met != nil {
			met.events.Inc()
			met.clock.SetInt(now)
		}

		// 1. Completions at this instant (before arrivals, so freed nodes
		// are visible to the scheduling pass).
		for j := m.Finish(now); j != nil; j = m.Finish(now) {
			if opts.OnFinish != nil {
				opts.OnFinish(now, j)
			}
			if opts.Accuracy != nil {
				if sec, ok := pred.Predict(j, 0); ok {
					opts.Accuracy.Record(w.Name, float64(sec), float64(j.RunTime))
				}
			}
			pred.Observe(j)
			if met != nil {
				met.completions.Inc()
			}
		}

		// 2. Cancellation deadlines at this instant (before arrivals and
		// before scheduling: a job whose patience ran out does not start).
		for len(cancels) > 0 && cancels[0].deadline == now {
			e := heap.Pop(&cancels).(cancelEntry)
			if !m.withdraw(e.job) {
				continue // already started; stale entry
			}
			e.job.Cancelled = true
			res.Cancelled++
			if opts.OnCancel != nil {
				opts.OnCancel(now, e.job)
			}
			if met != nil {
				met.cancellations.Inc()
			}
		}

		// 3. Arrivals at this instant. The admission hook sees the queue
		// and running set as they stand — the arriving job is not yet
		// queued — and may shed the job before it ever waits.
		for nextJob < len(jobs) && jobs[nextJob].SubmitTime == now {
			j := jobs[nextJob]
			nextJob++
			if met != nil {
				met.arrivals.Inc()
			}
			if opts.Admission != nil && !opts.Admission(now, j, m.Queue, m.Running, m.Free, m.Nodes) {
				j.Shed = true
				res.Shed++
				if opts.OnShed != nil {
					opts.OnShed(now, j)
				}
				if met != nil {
					met.shed.Inc()
				}
				continue
			}
			m.Queue = append(m.Queue, j)
			if j.CancelAfter > 0 {
				heap.Push(&cancels, cancelEntry{deadline: j.SubmitTime + j.CancelAfter, job: j})
			}
			if opts.OnSubmit != nil {
				opts.OnSubmit(now, j, m.Queue, m.Running)
			}
		}

		// 4. Scheduling passes until quiescent.
		if _, err := m.Schedule(now, pol, est, nil, started); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}

	// Metrics over the jobs that actually ran (cancelled and shed jobs
	// never start and contribute neither wait nor work).
	var waitSum, work int64
	first := jobs[0].SubmitTime
	last := first
	waits := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		if j.Cancelled || j.Shed {
			continue
		}
		waitSum += j.WaitTime()
		waits = append(waits, float64(j.WaitTime()))
		if wt := j.WaitTime(); wt > res.MaxWaitSec {
			res.MaxWaitSec = wt
		}
		work += j.Work()
		if j.EndTime > last {
			last = j.EndTime
		}
	}
	res.MakespanSec = last - first
	if len(waits) > 0 {
		res.MeanWaitSec = float64(waitSum) / float64(len(waits))
	}
	res.WaitDist = stats.Summarize(waits)
	if res.MakespanSec > 0 {
		res.Utilization = float64(work) / (float64(wc.MachineNodes) * float64(res.MakespanSec))
	}
	if met != nil {
		opts.Metrics.Counter("sim.predictions").Add(res.Predictions)
		wall := wallNow().Sub(wallStart).Seconds()
		opts.Metrics.Gauge("sim.wall_seconds").Set(wall)
		if wall > 0 {
			opts.Metrics.Gauge("sim.events_per_second").Set(float64(met.events.Value()) / wall)
		}
	}
	return res, nil
}
