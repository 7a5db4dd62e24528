package sched

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file adds the two policies the predictive-admission control loop
// schedules behind (ROADMAP item 1, SNIPPETS iter-14/H1-SJF): SJF orders
// the queue by the predicted run time itself — the purest consumer of the
// paper's run-time predictor, and the policy whose head-of-line-blocking
// relief the inference-sim H1-SJF finding quantifies — and PriorityFCFS
// orders it by SLO class, so admission-differentiated traffic classes are
// also scheduling-differentiated. Both share the sim.Policy interface and
// the rankQueue ordering substrate (one estimator call per job, explicit
// arrival-order tie-break), so their decisions are deterministic functions
// of the queue and the estimates.

// SJF is shortest-job-first on PREDICTED RUN TIME: the queue is ordered by
// increasing estimated run time (not work — a wide short job still goes
// first), so short jobs are never stuck behind long ones. Mispredictions
// translate directly into ordering mistakes, which is exactly what the
// price-of-misprediction regret experiment measures.
//
// Blocking selects the conservative variant that stops at the first job
// that does not fit; the default skips it, like LWF.
type SJF struct {
	// Blocking stops the scan at the first job that does not fit.
	Blocking bool
}

// Name implements sim.Policy.
func (s SJF) Name() string {
	if s.Blocking {
		return "SJF/blocking"
	}
	return "SJF"
}

// Pick starts jobs in increasing predicted-run-time order, skipping (or,
// if Blocking, stopping at) jobs that do not fit. Equal estimates start in
// arrival order.
func (s SJF) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	ordered := rankQueue(queue, func(j *workload.Job) int64 { return est(j, 0) })
	return startInOrder(ordered, free, s.Blocking)
}

// DefaultPriorities is the priority table PriorityFCFS ranks by, covering
// the SLO classes of the admission controller's default configuration:
// interactive traffic first, then standard, then sheddable batch.
// Unlisted classes rank 0, below all of these.
var DefaultPriorities = map[string]int{
	"interactive": 300,
	"standard":    200,
	"batch":       100,
}

// PriorityFCFS is FCFS within priority classes: the queue is ordered by
// decreasing DefaultPriorities rank of the job's Class, and jobs of equal
// priority keep their arrival order. It needs no run-time predictions at
// all — the class label is the only input — which makes it the natural
// companion to an admission controller that already segregates traffic
// into SLO classes. Like LWF and SJF it is non-blocking: a job that does
// not fit is skipped, not waited for.
type PriorityFCFS struct{}

// Name implements sim.Policy.
func (PriorityFCFS) Name() string { return "Priority" }

// Pick starts jobs in decreasing class priority, arrival order within a
// class, skipping jobs that do not fit.
func (PriorityFCFS) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	// rankQueue sorts ascending, so the key is the negated priority.
	ordered := rankQueue(queue, func(j *workload.Job) int64 { return -int64(DefaultPriorities[j.Class]) })
	return startInOrder(ordered, free, false)
}

// Static interface checks.
var (
	_ sim.Policy = SJF{}
	_ sim.Policy = PriorityFCFS{}
)
