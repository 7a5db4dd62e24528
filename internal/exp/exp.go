// Package exp drives the paper's experiments: the wait-time prediction
// study of Tables 4–9 and the scheduling study of Tables 10–15, plus the
// §4 interarrival-compression experiment, the ablations called out in
// DESIGN.md, and the future-work, validation and sweep experiments. Every
// experiment is a TableFunc registered under a table id in AllTables, which
// cmd/tables runs.
package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/predict/downey"
	"repro/internal/predict/gibbons"
	"repro/internal/sim"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// Config scopes an experiment run. Scale divides the Table-1 trace sizes
// (Scale 1 = full size); Seed perturbs the synthetic workloads.
type Config struct {
	Scale int
	Seed  int64
	// DefaultRT is the estimate of last resort (0 = predict.DefaultRuntime).
	DefaultRT int64
}

// DefaultConfig is sized so the full table suite runs in seconds.
var DefaultConfig = Config{Scale: 10, Seed: 42}

// PredictorKind names the run-time predictors of the study.
type PredictorKind string

// The predictors compared throughout the paper.
const (
	KindActual    PredictorKind = "actual"
	KindMaxRT     PredictorKind = "maxrt"
	KindSmith     PredictorKind = "smith"
	KindGibbons   PredictorKind = "gibbons"
	KindDowneyAvg PredictorKind = "downey-avg"
	KindDowneyMed PredictorKind = "downey-med"
)

// NewPredictor constructs a fresh predictor of the given kind for a
// workload. The Smith predictor uses the default template set unless
// templates were registered for the workload via SetTemplates (e.g. from a
// GA search).
func NewPredictor(kind PredictorKind, w *workload.Workload) (predict.Predictor, error) {
	switch kind {
	case KindActual:
		return predict.Oracle{}, nil
	case KindMaxRT:
		return predict.MaxRuntime{}, nil
	case KindSmith:
		if ts, ok := searchedTemplates[w.Name]; ok {
			return core.New(ts), nil
		}
		return core.NewDefault(w), nil
	case KindGibbons:
		return gibbons.New(), nil
	case KindDowneyAvg:
		return downey.New(downey.ConditionalAverage), nil
	case KindDowneyMed:
		return downey.New(downey.ConditionalMedian), nil
	}
	return nil, fmt.Errorf("exp: unknown predictor kind %q", kind)
}

// searchedTemplates lets callers (cmd/gasearch, tests) install searched
// template sets per workload name, overriding the defaults.
var searchedTemplates = map[string][]core.Template{}

// SetTemplates installs a searched template set for a workload name.
// Passing nil removes the override.
func SetTemplates(workloadName string, ts []core.Template) {
	if ts == nil {
		delete(searchedTemplates, workloadName)
		return
	}
	searchedTemplates[workloadName] = ts
}

// WaitResult is one row of a wait-time prediction table (Tables 4–9).
type WaitResult struct {
	Workload    string
	Policy      string
	Predictor   string
	MeanErrMin  float64 // mean |predicted − actual wait|, minutes
	PctMeanWait float64 // the error as a percentage of the mean wait time
	MeanWaitMin float64 // the workload's mean wait under the policy
	N           int     // jobs predicted
}

// WaitTimeExperiment reproduces one (workload, policy, predictor) cell of
// Tables 4–9: the ground-truth schedule is produced by the policy running
// with maximum run times (the deployed-scheduler configuration; the paper
// notes "scheduling is performed using maximum run times"), and the wait
// time of each application is predicted at submission by forward-simulating
// the same policy with the predictor under test. The predictor observes
// every completion as it happens, exactly as in the paper's step 3.
func WaitTimeExperiment(w *workload.Workload, pol sim.Policy, kind PredictorKind, cfg Config) (WaitResult, error) {
	underTest, err := NewPredictor(kind, w)
	if err != nil {
		return WaitResult{}, err
	}
	defaultRT := cfg.DefaultRT
	if defaultRT <= 0 {
		defaultRT = predict.DefaultRuntime
	}
	predicted := make(map[*workload.Job]int64, len(w.Jobs))
	var predErr error
	opts := sim.Options{
		OnSubmit: func(now int64, j *workload.Job, queue, running []*workload.Job) {
			if predErr != nil {
				return
			}
			// Durations come from the predictor under test; the simulated
			// scheduler's decisions use maximum run times, matching the
			// ground-truth scheduler below.
			wait, err := waitpred.PredictWait(now, j, queue, running,
				w.MachineNodes, pol, underTest, predict.MaxRuntime{}, defaultRT)
			if err != nil {
				predErr = err
				return
			}
			predicted[j] = wait
		},
		OnFinish: func(now int64, j *workload.Job) {
			underTest.Observe(j)
		},
	}
	if _, err := sim.Run(w, pol, predict.MaxRuntime{}, opts); err != nil {
		return WaitResult{}, err
	}
	if predErr != nil {
		return WaitResult{}, predErr
	}

	var absErr, waitSum float64
	var n int
	for j, pw := range predicted {
		absErr += math.Abs(float64(pw - j.WaitTime()))
		waitSum += float64(j.WaitTime())
		n++
	}
	if n == 0 {
		return WaitResult{}, fmt.Errorf("exp: no predictions recorded")
	}
	out := WaitResult{
		Workload:    w.Name,
		Policy:      pol.Name(),
		Predictor:   string(kind),
		MeanErrMin:  absErr / float64(n) / 60,
		MeanWaitMin: waitSum / float64(n) / 60,
		N:           n,
	}
	if waitSum > 0 {
		out.PctMeanWait = 100 * absErr / waitSum
	}
	return out, nil
}

// SchedResult is one row of a scheduling performance table (Tables 10–15).
type SchedResult struct {
	Workload    string
	Policy      string
	Predictor   string
	Utilization float64 // percent
	MeanWaitMin float64 // minutes
}

// SchedulingExperiment reproduces one cell of Tables 10–15: run the policy
// with the predictor under test supplying its run-time estimates and report
// utilization and mean wait time.
func SchedulingExperiment(w *workload.Workload, pol sim.Policy, kind PredictorKind, cfg Config) (SchedResult, error) {
	pred, err := NewPredictor(kind, w)
	if err != nil {
		return SchedResult{}, err
	}
	res, err := sim.Run(w, pol, pred, sim.Options{DefaultRuntime: cfg.DefaultRT})
	if err != nil {
		return SchedResult{}, err
	}
	return SchedResult{
		Workload:    w.Name,
		Policy:      pol.Name(),
		Predictor:   string(kind),
		Utilization: 100 * res.Utilization,
		MeanWaitMin: res.MeanWaitMinutes(),
	}, nil
}

// RuntimeErrorResult reports a predictor's raw run-time prediction accuracy
// on the prediction workload generated by a policy/trace pair (the paper
// quotes these as percentages of mean run times in §3 and §4).
type RuntimeErrorResult struct {
	Workload   string
	Policy     string
	Predictor  string
	MeanErrMin float64
	PctMeanRT  float64
	N          int
}

// RuntimePredictionError replays the policy's prediction workload through a
// fresh predictor of the given kind.
func RuntimePredictionError(w *workload.Workload, pol sim.Policy, kind PredictorKind, cfg Config) (RuntimeErrorResult, error) {
	pred, err := NewPredictor(kind, w)
	if err != nil {
		return RuntimeErrorResult{}, err
	}
	defaultRT := cfg.DefaultRT
	if defaultRT <= 0 {
		defaultRT = predict.DefaultRuntime
	}
	var absErr, rtSum float64
	var n int
	opts := sim.Options{
		OnSubmit: func(now int64, j *workload.Job, queue, running []*workload.Job) {
			for _, q := range queue {
				est := predict.Estimate(pred, q, 0, defaultRT)
				absErr += math.Abs(float64(est - q.RunTime))
				rtSum += float64(q.RunTime)
				n++
			}
			for _, r := range running {
				age := now - r.StartTime
				est := predict.Estimate(pred, r, age, defaultRT)
				absErr += math.Abs(float64(est - r.RunTime))
				rtSum += float64(r.RunTime)
				n++
			}
		},
		OnFinish: func(now int64, j *workload.Job) { pred.Observe(j) },
	}
	if _, err := sim.Run(w, pol, predict.MaxRuntime{}, opts); err != nil {
		return RuntimeErrorResult{}, err
	}
	out := RuntimeErrorResult{
		Workload: w.Name, Policy: pol.Name(), Predictor: string(kind),
		MeanErrMin: absErr / float64(n) / 60,
		N:          n,
	}
	if rtSum > 0 {
		out.PctMeanRT = 100 * absErr / rtSum
	}
	return out, nil
}
