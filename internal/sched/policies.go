package sched

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// FCFS is the first-come first-served policy: "applications are given
// resources in the order in which they arrive. The application at the head
// of the queue runs whenever enough nodes become free" (§2.1). No job may
// overtake the head, so the scan stops at the first job that does not fit.
type FCFS struct{}

// Name implements sim.Policy.
func (FCFS) Name() string { return "FCFS" }

// Pick starts the longest prefix of the arrival-ordered queue that fits.
func (FCFS) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	return startInOrder(queue, free, true)
}

// startInOrder starts the jobs of ordered that fit in the free nodes, in
// that order. A job that does not fit is skipped, or, when blocking, ends
// the scan, as the queue head does under FCFS.
func startInOrder(ordered []*workload.Job, free int, blocking bool) []*workload.Job {
	var picked []*workload.Job
	for _, j := range ordered {
		if j.Nodes > free {
			if blocking {
				break
			}
			continue
		}
		picked = append(picked, j)
		free -= j.Nodes
	}
	return picked
}

// LWF is the least-work-first policy: like FCFS but the queue is ordered by
// increasing estimated work — "number of nodes multiplied by estimated
// wallclock execution time" (§2.1). Run-time predictions enter the policy
// through this ordering, which is why LWF only needs to know whether jobs
// are "big" or "small" (§4).
//
// Blocking controls what happens when the least-work job does not fit:
// false (the default, matching the paper's Table 10 where LWF's mean waits
// undercut even backfill's) starts any smaller-work-first job that fits;
// true makes the queue head block exactly as in FCFS.
type LWF struct {
	// Blocking stops the scan at the first job that does not fit.
	Blocking bool
}

// Name implements sim.Policy.
func (l LWF) Name() string {
	if l.Blocking {
		return "LWF/blocking"
	}
	return "LWF"
}

// Pick starts jobs in least-work order, skipping (or, if Blocking, stopping
// at) jobs that do not fit. The work of each job is computed exactly once,
// in a single pass that also records the arrival index, so the sort needs
// no per-comparison estimator calls or map lookups and ties between
// equal-work jobs break deterministically in arrival order.
func (l LWF) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	ordered := rankQueue(queue, func(j *workload.Job) int64 { return int64(j.Nodes) * est(j, 0) })
	return startInOrder(ordered, free, l.Blocking)
}

// rankedJob pairs a queued job with its sort key and arrival index.
type rankedJob struct {
	job *workload.Job
	key int64
	idx int // arrival index: position in the submitted queue
}

// rankQueue orders the queue by increasing key with an explicit
// arrival-order tie-break. The key function is called exactly once per
// job (one estimator invocation each), and the tie-break is encoded in
// the comparison itself rather than relying on sort stability, so the
// resulting order is a pure function of (keys, arrival order).
func rankQueue(queue []*workload.Job, key func(j *workload.Job) int64) []*workload.Job {
	ranked := make([]rankedJob, len(queue))
	for i, j := range queue {
		ranked[i] = rankedJob{job: j, key: key(j), idx: i}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].key != ranked[b].key {
			return ranked[a].key < ranked[b].key
		}
		return ranked[a].idx < ranked[b].idx
	})
	ordered := make([]*workload.Job, len(ranked))
	for i, r := range ranked {
		ordered[i] = r.job
	}
	return ordered
}

// Backfill is the paper's backfill algorithm: a variant of FCFS in which an
// application may start early if doing so does not delay any application
// ahead of it in the queue. Every application that cannot run immediately
// receives a reservation of nodes at the earliest possible time (§2.1) —
// i.e. conservative backfill. With EASY=true only the first blocked
// application receives a reservation, reproducing the ANL/IBM EASY
// scheduler's more aggressive variant for ablation studies. WithBook adds
// advance reservations.
type Backfill struct {
	// EASY selects the aggressive variant (head-only reservation).
	EASY bool
}

// Name implements sim.Policy.
func (b Backfill) Name() string {
	if b.EASY {
		return "Backfill/EASY"
	}
	return "Backfill"
}

// Pick simulates the queue against a node-availability profile built from
// the predicted completion times of the running jobs, starting every job
// whose earliest feasible start is now.
func (b Backfill) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	return b.pick(now, queue, running, free, est, nil)
}

// WithBook returns b extended with the advance reservations of book (paper
// §5 future work): reserved node-time is walled off in the availability
// profile, so queued jobs start and backfill only around it, and running
// jobs never conflict with it (admission control is the book's job). Its
// name is b's with "+resv" appended. A nil book returns b itself.
//
// The book is not a field of Backfill: a pointer field would make every
// conversion of a Backfill value to sim.Policy allocate.
func (b Backfill) WithBook(book *ReservationBook) sim.Policy {
	if book == nil {
		return b
	}
	return bookedBackfill{b, book}
}

// bookedBackfill is a Backfill that honours a reservation book.
type bookedBackfill struct {
	b    Backfill
	book *ReservationBook
}

// Name implements sim.Policy.
func (p bookedBackfill) Name() string { return p.b.Name() + "+resv" }

// Pick implements sim.Policy.
func (p bookedBackfill) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	return p.b.pick(now, queue, running, free, est, p.book.Active(now))
}

// pick is the backfill pass, with the reservations in book allocated on
// top of the running jobs before the queue is fitted around both.
func (b Backfill) pick(now int64, queue, running []*workload.Job, free int, est sim.Estimator, book []Reservation) []*workload.Job {
	p := runningProfile(now, running, free, est, 2*(len(book)+len(queue)))
	if p == nil {
		// Inconsistent running set; fail safe by starting nothing.
		return nil
	}
	for _, r := range book {
		if err := p.Allocate(max(r.Start, now), r.End, r.Nodes); err != nil {
			// An inadmissible book (e.g. reservations exceeding the
			// currently running jobs' leftover capacity) fails safe.
			return nil
		}
	}

	var picked []*workload.Job
	reserved := false
	for _, j := range queue {
		d := est(j, 0)
		t := p.EarliestFit(now, d, j.Nodes)
		switch {
		case t == now:
			if err := p.Allocate(now, d+now, j.Nodes); err != nil {
				continue
			}
			picked = append(picked, j)
		case b.EASY && reserved:
			// EASY: later blocked jobs get no reservation; they may jump
			// the queue on the next pass if they fit without delaying the
			// head's reservation (which stays in the profile).
		default:
			if err := p.Allocate(t, t+d, j.Nodes); err == nil {
				reserved = true
			}
		}
	}
	return picked
}

// runningProfile is the availability profile from now on of a machine with
// `free` idle nodes whose running jobs release their nodes at their
// decision-estimated ends (at least an instant after now): a step function
// that starts at free and rises by each job's nodes at its end. It is built
// from one sort of the (end, nodes) pairs, with room for `extra` further
// breakpoints so the caller's allocations do not grow it. The result is the
// profile that allocating every running job from now to its end on a
// machine of free plus the running nodes would give. Like those
// allocations, it fails (nil) when a running job holds no nodes, or when
// free < 0 and there is a running job to allocate.
func runningProfile(now int64, running []*workload.Job, free int, est sim.Estimator, extra int) *Profile {
	if free < 0 && len(running) > 0 {
		return nil
	}
	type release struct {
		end   int64
		nodes int
	}
	rel := make([]release, len(running))
	for i, r := range running {
		if r.Nodes <= 0 {
			return nil
		}
		end := r.StartTime + est(r, now-r.StartTime)
		if end <= now {
			end = now + 1 // a running job occupies its nodes at least an instant longer
		}
		rel[i] = release{end, r.Nodes}
	}
	slices.SortFunc(rel, func(a, b release) int { return cmp.Compare(a.end, b.end) })
	n := 1 + len(running) + extra
	p := &Profile{times: make([]int64, 1, n), free: make([]int, 1, n)}
	p.times[0], p.free[0] = now, free
	last := 0
	for _, r := range rel {
		if r.end != p.times[last] {
			p.times = append(p.times, r.end)
			p.free = append(p.free, p.free[last])
			last++
		}
		p.free[last] += r.nodes
	}
	return p
}

// Static interface checks.
var (
	_ sim.Policy = FCFS{}
	_ sim.Policy = LWF{}
	_ sim.Policy = Backfill{}
)

// ByName returns the policy with the given name: "FCFS", "LWF",
// "LWF/blocking", "Backfill", "Backfill/EASY", "SJF", "SJF/blocking", or
// "Priority" (priority-FCFS on the job's SLO class with the default
// priority table). It returns nil for unknown names.
func ByName(name string) sim.Policy {
	switch name {
	case "FCFS":
		return FCFS{}
	case "LWF":
		return LWF{}
	case "LWF/blocking":
		return LWF{Blocking: true}
	case "Backfill":
		return Backfill{}
	case "Backfill/EASY":
		return Backfill{EASY: true}
	case "SJF":
		return SJF{}
	case "SJF/blocking":
		return SJF{Blocking: true}
	case "Priority":
		return PriorityFCFS{}
	}
	return nil
}

// All returns the three policies of the paper, in its order.
func All() []sim.Policy {
	return []sim.Policy{FCFS{}, LWF{}, Backfill{}}
}
