package sim

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/workload"
)

// TestAdmissionHookSheds verifies the engine-side contract of the
// admission hook: the hook sees the pre-admission state (the arriving job
// is not yet queued), rejected jobs are flagged, counted, and never
// scheduled, and admitted jobs are unaffected.
func TestAdmissionHookSheds(t *testing.T) {
	// Shed every even job ID.
	w := wl(4, j(1, 0, 100, 2), j(2, 0, 100, 2), j(3, 10, 100, 2), j(4, 20, 100, 2))
	reg := obs.NewRegistry()
	var hookQueueLens []int
	opts := Options{
		Metrics: reg,
		Admission: func(now int64, jb *workload.Job, queue, running []*workload.Job, free, total int) bool {
			for _, q := range queue {
				if q == jb {
					t.Errorf("job %d already queued when its admission hook ran", jb.ID)
				}
			}
			hookQueueLens = append(hookQueueLens, len(queue))
			return jb.ID%2 == 1
		},
	}
	var shed []int
	opts.OnShed = func(now int64, jb *workload.Job) { shed = append(shed, jb.ID) }

	res, err := Run(w, fcfs{}, predict.Oracle{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 2 || len(shed) != 2 || shed[0] != 2 || shed[1] != 4 {
		t.Fatalf("Shed = %d, shed IDs = %v, want 2 and [2 4]", res.Shed, shed)
	}
	for _, jb := range res.Jobs {
		if jb.ID%2 == 0 {
			if !jb.Shed || jb.StartTime != 0 || jb.EndTime != 0 {
				t.Errorf("job %d: Shed=%v start=%d end=%d, want shed and never run",
					jb.ID, jb.Shed, jb.StartTime, jb.EndTime)
			}
		} else if jb.Shed || jb.EndTime == 0 {
			t.Errorf("job %d: Shed=%v end=%d, want admitted and completed", jb.ID, jb.Shed, jb.EndTime)
		}
	}
	s := reg.Snapshot()
	if s.Counters["sim.shed"] != 2 {
		t.Fatalf("sim.shed = %d, want 2", s.Counters["sim.shed"])
	}
	if s.Counters["sim.arrivals"] != 4 {
		t.Fatalf("sim.arrivals = %d, want 4 (shed jobs still arrive)", s.Counters["sim.arrivals"])
	}
	if s.Counters["sim.starts"] != 2 {
		t.Fatalf("sim.starts = %d, want 2", s.Counters["sim.starts"])
	}
}

// TestAdmissionShedExcludedFromMetrics verifies shed jobs do not drag the
// wait/utilization accounting: a workload where the shed job would have
// waited a long time must report the same mean wait as the workload
// without it.
func TestAdmissionShedExcludedFromMetrics(t *testing.T) {
	base := wl(4, j(1, 0, 100, 4), j(2, 0, 100, 4))
	resBase, err := Run(base, fcfs{}, predict.Oracle{}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	withShed := wl(4, j(1, 0, 100, 4), j(2, 0, 100, 4), j(3, 0, 100, 4))
	opts := Options{Admission: func(now int64, jb *workload.Job, queue, running []*workload.Job, free, total int) bool {
		return jb.ID != 3
	}}
	resShed, err := Run(withShed, fcfs{}, predict.Oracle{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resShed.MeanWaitSec != resBase.MeanWaitSec {
		t.Fatalf("mean wait with shed job = %g, without = %g; shed jobs must not count",
			resShed.MeanWaitSec, resBase.MeanWaitSec)
	}
	if resShed.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", resShed.Shed)
	}
}

// TestAdmissionInvariants is the property-test version: across random
// workloads and a random admission predicate, every job is either shed
// (never started) or completes exactly once, capacity is respected, and
// the run is deterministic.
func TestAdmissionInvariants(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed * 7))
		keep := make(map[int]bool)
		for _, jb := range w.Jobs {
			keep[jb.ID] = rng.Intn(4) != 0 // shed ~25%
		}
		opts := Options{Admission: func(now int64, jb *workload.Job, queue, running []*workload.Job, free, total int) bool {
			return keep[jb.ID]
		}}
		res1, err := Run(w, fcfs{}, predict.Oracle{}, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res2, err := Run(w, fcfs{}, predict.Oracle{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkCapacity(t, res1.Jobs, w.MachineNodes)
		wantShed := 0
		for i, jb := range res1.Jobs {
			if !keep[jb.ID] {
				wantShed++
				if !jb.Shed || jb.StartTime != 0 || jb.EndTime != 0 {
					t.Fatalf("seed %d: job %d not cleanly shed", seed, jb.ID)
				}
				continue
			}
			if jb.Shed {
				t.Fatalf("seed %d: job %d shed despite admission", seed, jb.ID)
			}
			if jb.StartTime < jb.SubmitTime || jb.EndTime-jb.StartTime != jb.RunTime {
				t.Fatalf("seed %d: job %d bad schedule [%d,%d]", seed, jb.ID, jb.StartTime, jb.EndTime)
			}
			if res2.Jobs[i].StartTime != jb.StartTime || res2.Jobs[i].Shed != jb.Shed {
				t.Fatalf("seed %d: nondeterministic under admission", seed)
			}
		}
		if res1.Shed != wantShed {
			t.Fatalf("seed %d: Shed = %d, want %d", seed, res1.Shed, wantShed)
		}
	}
}
