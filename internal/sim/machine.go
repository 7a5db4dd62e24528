package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/workload"
)

// Machine is the state of one simulated space-shared machine: the queue in
// arrival order, the running jobs in a heap ordered by (EndTime, ID), and
// the free node count. Run, the forward simulation of internal/waitpred and
// the per-machine schedulers of internal/metasim each keep their machines in
// one and start jobs only through Schedule, so the three share one
// scheduling pass.
//
// Callers may read every field and append arriving jobs to Queue. Running
// changes only through Start, Schedule and Finish, which keep it a heap.
type Machine struct {
	Nodes   int             // machine size
	Free    int             // nodes no running job holds
	Queue   []*workload.Job // waiting jobs, in arrival order
	Running []*workload.Job // running jobs; Running[0] ends first
}

// runHeap orders running jobs by end time, breaking ties by job ID for
// determinism.
type runHeap []*workload.Job

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].EndTime != h[j].EndTime {
		return h[i].EndTime < h[j].EndTime
	}
	return h[i].ID < h[j].ID
}
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(*workload.Job)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Start adds j, whose StartTime and EndTime are set, to the running jobs
// and takes its nodes.
func (m *Machine) Start(j *workload.Job) {
	heap.Push((*runHeap)(&m.Running), j)
	m.Free -= j.Nodes
}

// Finish removes the running job that ends first and frees its nodes, if
// it ends at now, and returns it; otherwise it returns nil.
func (m *Machine) Finish(now int64) *workload.Job {
	if len(m.Running) == 0 || m.Running[0].EndTime != now {
		return nil
	}
	j := heap.Pop((*runHeap)(&m.Running)).(*workload.Job)
	m.Free += j.Nodes
	return j
}

// withdraw removes j from the queue and reports whether it was there.
func (m *Machine) withdraw(j *workload.Job) bool {
	for i, q := range m.Queue {
		if q == j {
			m.Queue = append(m.Queue[:i], m.Queue[i+1:]...)
			return true
		}
	}
	return false
}

// Schedule runs scheduling passes at now until pol starts nothing more.
// Each pass hands pol the queue, the running jobs and the free nodes. The
// jobs it picks leave the queue and run for dur(j) seconds, or for their
// actual RunTime when dur is nil. started, when non-nil, sees each job once
// it has started; when it returns true, Schedule stops at once and reports
// stopped.
//
// A pass in which no queued job fits in the free nodes is skipped: pol may
// only start jobs that fit, so it could start nothing. The skip is exact
// because est's predictor has no side effects (predict.Predictor), so the
// estimates a skipped pass would have asked for change nothing later. A
// pick that needs more nodes than are free is an error, found before any
// picked job starts.
func (m *Machine) Schedule(now int64, pol Policy, est Estimator,
	dur func(*workload.Job) int64, started func(*workload.Job) bool) (stopped bool, err error) {

	for anyFits(m.Queue, m.Free) {
		picked := pol.Pick(now, m.Queue, m.Running, m.Free, m.Nodes, est)
		if len(picked) == 0 {
			return false, nil
		}
		var need int
		for _, j := range picked {
			need += j.Nodes
		}
		if need > m.Free {
			return false, fmt.Errorf("policy %s picked %d nodes with %d free", pol.Name(), need, m.Free)
		}
		for _, j := range picked {
			d := j.RunTime
			if dur != nil {
				d = dur(j)
			}
			m.withdraw(j)
			j.StartTime, j.EndTime = now, now+d
			m.Start(j)
			if started != nil && started(j) {
				return true, nil
			}
		}
	}
	return false, nil
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
