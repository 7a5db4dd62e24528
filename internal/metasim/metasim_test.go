package metasim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/workload"
)

func twoMachines() []MachineSpec {
	return []MachineSpec{
		{Name: "big", Nodes: 64, Policy: sched.Backfill{}},
		{Name: "small", Nodes: 16, Policy: sched.Backfill{}},
	}
}

func jb(id int, submit, rt int64, nodes int) *workload.Job {
	return &workload.Job{ID: id, User: "u", SubmitTime: submit, RunTime: rt,
		MaxRunTime: rt * 2, Nodes: nodes}
}

func TestRunBasicRouting(t *testing.T) {
	jobs := []*workload.Job{
		jb(1, 0, 100, 8), jb(2, 10, 100, 8), jb(3, 20, 100, 8), jb(4, 30, 100, 8),
	}
	res, err := Run(jobs, twoMachines(), &RoundRobin{}, predict.MaxRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed[0]+res.Routed[1] != len(jobs) {
		t.Fatalf("routed %v", res.Routed)
	}
	if res.Routed[0] == 0 || res.Routed[1] == 0 {
		t.Fatalf("round robin should use both machines: %v", res.Routed)
	}
	if len(res.Machines) != 2 {
		t.Fatalf("machine results: %v", res.Machines)
	}
}

func TestOversizeJobsGoToBigMachine(t *testing.T) {
	jobs := []*workload.Job{jb(1, 0, 100, 32), jb(2, 10, 100, 32)}
	res, err := Run(jobs, twoMachines(), NewRandom(1), predict.MaxRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed[0] != 2 || res.Routed[1] != 0 {
		t.Fatalf("32-node jobs must go to the 64-node machine: %v", res.Routed)
	}
}

func TestNoMachineFits(t *testing.T) {
	jobs := []*workload.Job{jb(1, 0, 100, 128)}
	if _, err := Run(jobs, twoMachines(), &RoundRobin{}, predict.MaxRuntime{}); err == nil {
		t.Fatal("oversize job should error")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(nil, nil, &RoundRobin{}, predict.MaxRuntime{}); err == nil {
		t.Fatal("no machines should error")
	}
	bad := []MachineSpec{{Name: "x", Nodes: 0, Policy: sched.FCFS{}}}
	if _, err := Run(nil, bad, &RoundRobin{}, predict.MaxRuntime{}); err == nil {
		t.Fatal("zero-node machine should error")
	}
}

func TestLeastWorkAvoidsBusyMachine(t *testing.T) {
	// Load machine 0 heavily, then send small jobs: least-work must route
	// them to machine 1.
	jobs := []*workload.Job{
		jb(1, 0, 100000, 60), // fills "big" (arrives first, round 0 of RR? use LeastWork throughout)
		jb(2, 10, 100, 8),
		jb(3, 20, 100, 8),
	}
	res, err := Run(jobs, twoMachines(), LeastWork{}, predict.MaxRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed[1] < 2 {
		t.Fatalf("small jobs should avoid the loaded machine: %v", res.Routed)
	}
}

func TestPredictedTurnaroundBeatsRandom(t *testing.T) {
	// A pool with one busy and one idle machine under a bursty workload:
	// prediction-guided routing should achieve a mean wait no worse than
	// random routing.
	w, err := workload.Study("SDSC95", 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Compress to create contention.
	w = workload.Compress(w, 3)
	specs := []MachineSpec{
		{Name: "a", Nodes: 200, Policy: sched.Backfill{}},
		{Name: "b", Nodes: 200, Policy: sched.Backfill{}},
		{Name: "c", Nodes: 400, Policy: sched.Backfill{}},
	}
	runWith := func(r Router, p predict.Predictor) float64 {
		res, err := Run(w.Jobs, specs, r, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanWaitMin
	}
	smith := core.NewDefault(w)
	guided := runWith(PredictedTurnaround{Pred: smith, Policy: sched.Backfill{}}, smith)
	rnd := runWith(NewRandom(3), predict.MaxRuntime{})
	t.Logf("guided %.2f min vs random %.2f min", guided, rnd)
	if guided > rnd*1.1 {
		t.Fatalf("prediction-guided routing (%.2f) much worse than random (%.2f)", guided, rnd)
	}
}

func TestDeterminism(t *testing.T) {
	w, err := workload.Study("SDSC96", 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(w.Jobs, twoMachinesBig(), LeastWork{}, predict.MaxRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanWaitMin != b.MeanWaitMin || a.Routed[0] != b.Routed[0] {
		t.Fatal("metasim is nondeterministic")
	}
}

func twoMachinesBig() []MachineSpec {
	return []MachineSpec{
		{Name: "a", Nodes: 400, Policy: sched.Backfill{}},
		{Name: "b", Nodes: 400, Policy: sched.Backfill{}},
	}
}

func TestInputJobsNotMutated(t *testing.T) {
	jobs := []*workload.Job{jb(1, 0, 100, 8)}
	if _, err := Run(jobs, twoMachines(), &RoundRobin{}, predict.MaxRuntime{}); err != nil {
		t.Fatal(err)
	}
	if jobs[0].StartTime != 0 && jobs[0].EndTime != 0 {
		t.Fatal("input mutated")
	}
}

// TestCompletionBeforeArrival checks metasim's event order: a completion is
// seen before an arrival at the same instant, as in sim.Run. Job 3 arrives
// at the instant job 1, the only job on machine "a", ends; machine "b" is
// still busy, so least-work must route job 3 to the idle "a". Routed before
// the completion, "a" would still hold job 1 with 9900 s of its maximum run
// time left, against 901 s on "b".
func TestCompletionBeforeArrival(t *testing.T) {
	specs := []MachineSpec{
		{Name: "a", Nodes: 16, Policy: sched.FCFS{}},
		{Name: "b", Nodes: 16, Policy: sched.FCFS{}},
	}
	j1 := jb(1, 0, 100, 16)
	j1.MaxRunTime = 10000
	j2 := jb(2, 1, 1000, 16)
	j2.MaxRunTime = 1000
	j3 := jb(3, 100, 10, 16)
	res, err := Run([]*workload.Job{j1, j2, j3}, specs, LeastWork{}, predict.MaxRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed[0] != 2 || res.Routed[1] != 1 {
		t.Fatalf("routed %v, want [2 1]: job 3 belongs on the machine its arrival instant freed", res.Routed)
	}
	if res.MaxWaitMin != 0 {
		t.Fatalf("max wait %.2f min, want 0: job 3 starts on arrival", res.MaxWaitMin)
	}
}
