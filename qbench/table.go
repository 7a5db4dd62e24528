package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// tableSeeds are the ANL generator seeds --seed picks from, by parity.
// How congested a generated trace gets varies several-fold from seed to
// seed, and a Table-6 cell's cost follows the congestion (README.md, "Seed
// pool"): these two traces cost within 4% of each other on every figure
// table-replay reports, among 16 screened.
var tableSeeds = []int64{9, 12}

func tableSeed(seed int64) int64 {
	n := int64(len(tableSeeds))
	return tableSeeds[((seed%n)+n)%n]
}

// tableLimit is the latency limit of one wait prediction in the replay.
const tableLimit = 50 * time.Millisecond

// replayWait re-runs exp.WaitTimeExperiment's Table-6 cell loop (smith
// durations, maximum-run-time decisions, policy pol) and times each wait
// prediction. With rec set, the policy and predictor are wrapped and every
// prediction, pick, observation and the simulation itself become spans;
// with reg set, the simulator publishes its own counters and throughput.
func replayWait(w *workload.Workload, pol sim.Policy, rec *recorder, reg *obs.Registry) (exp.WaitResult, []float64, *core.Predictor, error) {
	underTest, err := exp.NewPredictor(exp.KindSmith, w)
	if err != nil {
		return exp.WaitResult{}, nil, nil, err
	}
	smith, ok := underTest.(*core.Predictor)
	if !ok {
		return exp.WaitResult{}, nil, nil, fmt.Errorf("smith predictor is %T, not *core.Predictor", underTest)
	}
	var pred predict.Predictor = smith
	if rec != nil {
		pol = tracedPolicy{inner: pol, rec: rec}
		pred = tracedPredictor{inner: smith, rec: rec}
	}
	predicted := make(map[*workload.Job]int64, len(w.Jobs))
	lat := make([]float64, 0, len(w.Jobs))
	var predErr error
	opts := sim.Options{
		OnSubmit: func(now int64, j *workload.Job, queue, running []*workload.Job) {
			if predErr != nil {
				return
			}
			t := time.Now()
			done := rec.span("waitpred.simulate")
			wait, err := waitpred.PredictWait(now, j, queue, running, w.MachineNodes, pol, pred,
				predict.MaxRuntime{}, predict.DefaultRuntime)
			done()
			lat = append(lat, float64(time.Since(t))/1e6)
			if err != nil {
				predErr = err
				return
			}
			predicted[j] = wait
		},
		OnFinish: func(now int64, j *workload.Job) { pred.Observe(j) },
		Metrics:  reg,
	}
	if reg != nil {
		opts.Now = time.Now
	}
	done := rec.span("sim.run")
	_, err = sim.Run(w, pol, predict.MaxRuntime{}, opts)
	done()
	if err != nil {
		return exp.WaitResult{}, nil, nil, err
	}
	if predErr != nil {
		return exp.WaitResult{}, nil, nil, predErr
	}
	// The same arithmetic as exp.WaitTimeExperiment: sums of whole seconds,
	// exact in any order.
	var absErr, waitSum float64
	for j, pw := range predicted {
		absErr += math.Abs(float64(pw - j.WaitTime()))
		waitSum += float64(j.WaitTime())
	}
	n := len(predicted)
	if n == 0 {
		return exp.WaitResult{}, nil, nil, fmt.Errorf("no predictions recorded")
	}
	out := exp.WaitResult{Workload: w.Name, Policy: pol.Name(), Predictor: string(exp.KindSmith),
		MeanErrMin: absErr / float64(n) / 60, MeanWaitMin: waitSum / float64(n) / 60, N: n}
	if waitSum > 0 {
		out.PctMeanWait = 100 * absErr / waitSum
	}
	return out, lat, smith, nil
}

// sameWait and sameSched compare results bit for bit.
func sameWait(a, b exp.WaitResult) bool {
	return a.Workload == b.Workload && a.Policy == b.Policy && a.Predictor == b.Predictor && a.N == b.N &&
		math.Float64bits(a.MeanErrMin) == math.Float64bits(b.MeanErrMin) &&
		math.Float64bits(a.PctMeanWait) == math.Float64bits(b.PctMeanWait) &&
		math.Float64bits(a.MeanWaitMin) == math.Float64bits(b.MeanWaitMin)
}

func sameSched(a, b exp.SchedResult) bool {
	return a.Workload == b.Workload && a.Policy == b.Policy && a.Predictor == b.Predictor &&
		math.Float64bits(a.Utilization) == math.Float64bits(b.Utilization) &&
		math.Float64bits(a.MeanWaitMin) == math.Float64bits(b.MeanWaitMin)
}

// tableCells runs the two paper cells through internal/exp: the Table-6
// wait-time cell (Backfill) and the Table-12 scheduling cell (LWF).
func tableCells(w *workload.Workload) (exp.WaitResult, exp.SchedResult, time.Duration, error) {
	t := time.Now()
	wr, err := exp.WaitTimeExperiment(w, sched.Backfill{}, exp.KindSmith, exp.Config{})
	if err != nil {
		return wr, exp.SchedResult{}, 0, fmt.Errorf("table 6 cell: %w", err)
	}
	sr, err := exp.SchedulingExperiment(w, sched.LWF{}, exp.KindSmith, exp.Config{})
	if err != nil {
		return wr, sr, 0, fmt.Errorf("table 12 cell: %w", err)
	}
	return wr, sr, time.Since(t), nil
}

func generateTable(seed int64) (*workload.Workload, float64, error) {
	t := time.Now()
	w, err := workload.Study("ANL", 2, tableSeed(seed))
	if err != nil {
		return nil, 0, err
	}
	return w, since(t), nil
}

func runTable(cfg config, rep *report) error {
	if cfg.trace {
		return traceTable(cfg, rep)
	}
	var setup setupTimes
	sp := newSpeed()
	// The first set-up's trace is the one replayed; later ones, spread over
	// the run so that setup_s samples all of it, are discarded.
	setupOnce := func() (*workload.Workload, error) {
		done := setup.start()
		w, _, err := generateTable(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up of table-replay: %w", err)
		}
		done()
		return w, nil
	}
	w, err := setupOnce()
	if err != nil {
		return err
	}
	budget := time.Duration(cfg.seconds) * time.Second
	t0, mark := time.Now(), markCPU()
	var (
		mallocs    uint64
		firstWait  exp.WaitResult
		firstSched exp.SchedResult
		jobsPerS   []float64
		predPerS   []float64
		lat        []float64
		ops        int
		wallJobs   []float64
	)
	for rep0 := 0; rep0 < 2 || time.Since(t0) < budget; rep0++ {
		ms0, c0 := memStats(), cpuTime()
		wr, sr, d, err := tableCells(w)
		if err != nil {
			return err
		}
		c1 := cpuTime()
		jobsPerS = append(jobsPerS, float64(2*len(w.Jobs))/(c1-c0).Seconds())
		wallJobs = append(wallJobs, float64(2*len(w.Jobs))/d.Seconds())
		sp.mark()
		c1 = cpuTime()
		rr, l, _, err := replayWait(w, sched.Backfill{}, nil, nil)
		if err != nil {
			return fmt.Errorf("wait-prediction replay: %w", err)
		}
		predPerS = append(predPerS, float64(len(l))/(cpuTime()-c1).Seconds())
		mallocs += memStats().Mallocs - ms0.Mallocs
		sp.mark()
		for i := 0; i < tableSetupsPerRep; i++ {
			if _, err := setupOnce(); err != nil {
				return err
			}
		}
		lat = append(lat, l...)
		ops += 2*len(w.Jobs) + len(l)
		failed := 0
		if rep0 == 0 {
			firstWait, firstSched = wr, sr
		}
		if !sameWait(wr, firstWait) || !sameSched(sr, firstSched) {
			rep.fail("determinism: repetition %d of the table cells differs from the first (%+v %+v vs %+v %+v)",
				rep0, wr, sr, firstWait, firstSched)
			failed = 2
		}
		if !sameWait(rr, wr) {
			rep.fail("replay: wait-prediction replay %+v differs from exp.WaitTimeExperiment %+v", rr, wr)
			failed++
		}
		rep.count(2+len(l), failed, nil)
	}
	util, stolen := mark.utilSince(markCPU(), 1)
	sp.release()
	heap := liveHeapMiB()
	d := summarize(lat)
	within := 0
	for _, x := range lat {
		if x <= float64(tableLimit)/1e6 {
			within++
		}
	}
	setup.report(rep, sp)
	rep.set("p50_ms", "ms", d.P50*sp.factor(), fmt.Sprintf("reference time, n=%d wait predictions", d.N))
	rep.aside("p50_wall_ms", "ms", d.P50, fmt.Sprintf("n=%d", d.N))
	setTail(rep, lat)
	rep.set("slo_frac", "ratio", ratio(float64(within), float64(len(lat))), fmt.Sprintf("limit=%s", tableLimit))
	rep.set("capacity_rps", "req/cpu-s", median(predPerS)/sp.factor(),
		fmt.Sprintf("reference CPU time, wait predictions, median of %d replays; %.0f per CPU-second", len(predPerS), median(predPerS)))
	rep.set("jobs_per_s", "jobs/cpu-s", median(jobsPerS)/sp.factor(),
		fmt.Sprintf("reference CPU time, median of %d cell pairs, %d jobs each; %.0f jobs/cpu-s, %.0f jobs/s wall",
			len(jobsPerS), len(w.Jobs), median(jobsPerS), median(wallJobs)))
	rep.set("cpu_util", "ratio", util, "process CPU over wall time of the single-threaded replay less stolen time")
	rep.set("heap_mb", "MiB", heap, "live heap after GC")
	rep.set("allocs_per_op", "count", ratio(float64(mallocs), float64(ops)), fmt.Sprintf("ops=%d replayed jobs", ops))
	rep.aside("host.steal_frac", "ratio", stolen, "measured phase")
	return nil
}
