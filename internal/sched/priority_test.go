package sched

import (
	"testing"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestSJFOrdersByPredictedRuntime(t *testing.T) {
	// Runtime order: 3 (50) < 1 (100) < 2 (200). Width is irrelevant: SJF
	// ranks by time, not work — the wide short job still goes first.
	queue := []*workload.Job{job(1, 1, 100), job(2, 1, 200), job(3, 8, 50)}
	picked := SJF{}.Pick(0, queue, nil, 8, 8, actualEst)
	if !sameIDs(picked, 3) {
		t.Fatalf("picked %v, want [3] (8 nodes consumed first)", ids(picked))
	}
	picked = SJF{}.Pick(0, queue, nil, 2, 8, actualEst)
	// Job 3 does not fit in 2 free nodes; the non-blocking scan skips it.
	if !sameIDs(picked, 1, 2) {
		t.Fatalf("picked %v, want [1 2]", ids(picked))
	}
	picked = SJF{Blocking: true}.Pick(0, queue, nil, 2, 8, actualEst)
	// Blocking: the scan stops at the non-fitting shortest job.
	if len(picked) != 0 {
		t.Fatalf("blocking picked %v, want none", ids(picked))
	}
}

func TestSJFEqualEstimatesArrivalOrder(t *testing.T) {
	queue := []*workload.Job{job(7, 1, 100), job(3, 1, 100), job(5, 1, 100)}
	picked := SJF{}.Pick(0, queue, nil, 3, 8, actualEst)
	if !sameIDs(picked, 7, 3, 5) {
		t.Fatalf("picked %v, want arrival order [7 3 5]", ids(picked))
	}
}

func classedJob(id, nodes int, rt int64, class string) *workload.Job {
	j := job(id, nodes, rt)
	j.Class = class
	return j
}

func TestPriorityFCFSOrdersByClass(t *testing.T) {
	queue := []*workload.Job{
		classedJob(1, 1, 100, "batch"),
		classedJob(2, 1, 100, "interactive"),
		classedJob(3, 1, 100, "standard"),
		classedJob(4, 1, 100, "interactive"),
	}
	picked := PriorityFCFS{}.Pick(0, queue, nil, 4, 8, actualEst)
	// Interactive (300) in arrival order, then standard (200), then batch.
	if !sameIDs(picked, 2, 4, 3, 1) {
		t.Fatalf("picked %v, want [2 4 3 1]", ids(picked))
	}
	// A higher-priority job that does not fit is skipped, not waited for.
	queue[1].Nodes = 8
	picked = PriorityFCFS{}.Pick(0, queue, nil, 4, 8, actualEst)
	if !sameIDs(picked, 4, 3, 1) {
		t.Fatalf("picked %v, want [4 3 1]", ids(picked))
	}
}

func TestPriorityFCFSUnknownClassRanksLast(t *testing.T) {
	queue := []*workload.Job{
		classedJob(1, 1, 100, "mystery"),
		classedJob(2, 1, 100, "batch"),
	}
	picked := PriorityFCFS{}.Pick(0, queue, nil, 2, 8, actualEst)
	if !sameIDs(picked, 2, 1) {
		t.Fatalf("picked %v, want [2 1] (unknown class below batch)", ids(picked))
	}
}

// TestLWFTieBreakArrivalOrder is the determinism regression for the
// rankQueue rewrite: equal-work jobs must leave the sort in arrival
// order, as an explicit comparison rule rather than an accident of the
// sort implementation.
func TestLWFTieBreakArrivalOrder(t *testing.T) {
	// Deliberately non-monotonic IDs so "arrival order" is visibly the
	// queue position, not the ID.
	queue := []*workload.Job{
		job(9, 2, 50),  // work 100
		job(1, 1, 100), // work 100
		job(4, 4, 25),  // work 100
		job(2, 1, 10),  // work 10 — strictly least, goes first
	}
	for trial := 0; trial < 10; trial++ {
		picked := LWF{}.Pick(0, queue, nil, 8, 8, actualEst)
		if !sameIDs(picked, 2, 9, 1, 4) {
			t.Fatalf("trial %d: picked %v, want [2 9 1 4]", trial, ids(picked))
		}
	}
}

// TestLWFTieBreakEndToEnd runs equal-work jobs through the full engine:
// they must START in arrival order, run after run.
func TestLWFTieBreakEndToEnd(t *testing.T) {
	mk := func() *workload.Workload {
		// All jobs arrive at t=0 with identical work on a 1-node machine,
		// so LWF's tie-break alone fixes the start order.
		return &workload.Workload{Name: "ties", MachineNodes: 1, Jobs: []*workload.Job{
			{ID: 5, Nodes: 1, SubmitTime: 0, RunTime: 60},
			{ID: 2, Nodes: 1, SubmitTime: 0, RunTime: 60},
			{ID: 8, Nodes: 1, SubmitTime: 0, RunTime: 60},
		}}
	}
	var first []int64
	for trial := 0; trial < 5; trial++ {
		res, err := sim.Run(mk(), LWF{}, predict.Oracle{}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		starts := []int64{res.Jobs[0].StartTime, res.Jobs[1].StartTime, res.Jobs[2].StartTime}
		if !(starts[0] < starts[1] && starts[1] < starts[2]) {
			t.Fatalf("trial %d: equal-work jobs started at %v, want arrival order", trial, starts)
		}
		if trial == 0 {
			first = starts
			continue
		}
		for i := range starts {
			if starts[i] != first[i] {
				t.Fatalf("trial %d: start times %v differ from first run %v", trial, starts, first)
			}
		}
	}
}

func TestByNameNewPolicies(t *testing.T) {
	for _, name := range []string{"SJF", "SJF/blocking", "Priority"} {
		p := ByName(name)
		if p == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
}
