package sched

import (
	"math/rand"
	"testing"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/workload"
)

// randWorkload builds a small random-but-valid workload.
func randWorkload(seed int64) *workload.Workload {
	rng := rand.New(rand.NewSource(seed))
	machine := 4 << rng.Intn(5)
	n := 20 + rng.Intn(60)
	jobs := make([]*workload.Job, n)
	var t int64
	for i := range jobs {
		t += int64(rng.Intn(900))
		rt := int64(30 + rng.Intn(7200))
		jobs[i] = &workload.Job{
			ID:         i + 1,
			User:       string(rune('a' + rng.Intn(5))),
			Queue:      string(rune('p' + rng.Intn(3))),
			Nodes:      1 + rng.Intn(machine),
			SubmitTime: t,
			RunTime:    rt,
			MaxRunTime: rt * int64(1+rng.Intn(4)),
		}
	}
	return &workload.Workload{
		Name: "rand", MachineNodes: machine, Jobs: jobs,
		Chars: workload.MaskOf(workload.CharUser, workload.CharQueue), HasMaxRT: true,
	}
}

// verifySchedule checks the engine-level safety properties of a completed
// schedule.
func verifySchedule(t *testing.T, jobs []*workload.Job, machineNodes int, label string) {
	t.Helper()
	type ev struct {
		t     int64
		delta int
	}
	var evs []ev
	for _, j := range jobs {
		if j.StartTime < j.SubmitTime {
			t.Fatalf("%s: job %d starts before submission", label, j.ID)
		}
		if j.EndTime-j.StartTime != j.RunTime {
			t.Fatalf("%s: job %d duration %d != runtime %d",
				label, j.ID, j.EndTime-j.StartTime, j.RunTime)
		}
		evs = append(evs, ev{j.StartTime, j.Nodes}, ev{j.EndTime, -j.Nodes})
	}
	for i := 1; i < len(evs); i++ {
		e := evs[i]
		k := i - 1
		for k >= 0 && (evs[k].t > e.t || (evs[k].t == e.t && evs[k].delta > 0 && e.delta < 0)) {
			evs[k+1] = evs[k]
			k--
		}
		evs[k+1] = e
	}
	used := 0
	for _, e := range evs {
		used += e.delta
		if used > machineNodes {
			t.Fatalf("%s: capacity violated (%d of %d nodes)", label, used, machineNodes)
		}
	}
}

// TestAllPoliciesInvariants runs every production policy with several
// predictors over random workloads, checking safety, completeness, and
// determinism.
func TestAllPoliciesInvariants(t *testing.T) {
	policies := []func() sim.Policy{
		func() sim.Policy { return FCFS{} },
		func() sim.Policy { return LWF{} },
		func() sim.Policy { return LWF{Blocking: true} },
		func() sim.Policy { return Backfill{} },
		func() sim.Policy { return Backfill{EASY: true} },
		func() sim.Policy { return Backfill{}.WithBook(&ReservationBook{}) },
	}
	preds := []func() predict.Predictor{
		func() predict.Predictor { return predict.Oracle{} },
		func() predict.Predictor { return predict.MaxRuntime{} },
		func() predict.Predictor { return &predict.RunningMean{} },
	}
	for seed := int64(1); seed <= 15; seed++ {
		w := randWorkload(seed)
		for _, mkPol := range policies {
			for _, mkPred := range preds {
				label := mkPol().Name() + "/" + mkPred().Name()
				r1, err := sim.Run(w, mkPol(), mkPred(), sim.Options{})
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, label, err)
				}
				verifySchedule(t, r1.Jobs, w.MachineNodes, label)
				r2, err := sim.Run(w, mkPol(), mkPred(), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range r1.Jobs {
					if r1.Jobs[i].StartTime != r2.Jobs[i].StartTime {
						t.Fatalf("seed %d %s: nondeterministic", seed, label)
					}
				}
			}
		}
	}
}

// TestBackfillNeverWorseThanItsReservation: under conservative backfill
// with the ORACLE, no job starts later than the completion of all jobs
// that arrived before it plus its own fit — a weak no-starvation property:
// every job eventually runs, and the makespan is bounded by the serial
// schedule.
func TestBackfillBoundedMakespan(t *testing.T) {
	for seed := int64(50); seed < 60; seed++ {
		w := randWorkload(seed)
		res, err := sim.Run(w, Backfill{}, predict.Oracle{}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var serial int64
		last := w.Jobs[0].SubmitTime
		for _, j := range w.Jobs {
			serial += j.RunTime
			if j.SubmitTime > last {
				last = j.SubmitTime
			}
		}
		bound := last + serial // run everything back to back after the last arrival
		for _, j := range res.Jobs {
			if j.EndTime > bound {
				t.Fatalf("seed %d: job %d ends at %d beyond serial bound %d",
					seed, j.ID, j.EndTime, bound)
			}
		}
	}
}

// TestReservingBackfillUnderLiveLoad: a mid-trace whole-machine reservation
// is never violated by batch jobs under a live workload.
func TestReservingBackfillUnderLiveLoad(t *testing.T) {
	w := randWorkload(77)
	var book ReservationBook
	span := w.Jobs[len(w.Jobs)-1].SubmitTime
	resStart, resEnd := span/2, span/2+7200
	if _, err := book.Add(resStart, resEnd, w.MachineNodes, w.MachineNodes); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(w, Backfill{}.WithBook(&book), predict.MaxRuntime{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.StartTime < resEnd && j.EndTime > resStart {
			// Overlap is only legal if the job started before the
			// reservation was... there is no before: the book predates the
			// run, so any overlap is a violation UNLESS the job started
			// before resStart and the policy believed (from an
			// under-estimate) it would finish in time. With MaxRuntime
			// estimates (an upper bound on run time) that cannot happen.
			t.Fatalf("job %d [%d,%d) intrudes on reservation [%d,%d)",
				j.ID, j.StartTime, j.EndTime, resStart, resEnd)
		}
	}
}
