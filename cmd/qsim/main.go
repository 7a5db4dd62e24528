// Command qsim runs one scheduling simulation: a workload replayed through
// a scheduling algorithm with a run-time predictor, reporting utilization
// and mean wait time (the cells of Tables 10–15) and optionally the per-job
// schedule and the node-usage timeline as CSV.
//
// Usage:
//
//	qsim -workload ANL -policy Backfill -predictor smith [-scale N] [-seed S] [-csv out.csv]
//	qsim -in trace.swf -policy LWF -predictor maxrt [-usage usage.csv]
//	qsim -workload ANL -predictor smith -accuracy        # per-run error summary
//	qsim -workload ANL -accuracy -shadow                 # + live stable scoreboard
//	qsim -regret [-regret-json out.json]                 # price-of-misprediction sweep
//	qsim -reselect [-tail-cost 2] [-fill 0.95]           # drift → re-selection sweep
//
// With -accuracy, every completion is scored (the prediction made just
// before the predictor observes it, against the actual run time) and the
// run ends with the workload's mean/RMS error, absolute-error quantiles,
// signed tail quantiles, asymmetric cost (-tail-cost sets the
// under-prediction ratio) and over/under counts — the live counterpart of
// the paper's Tables 4–9 with the TARE-style tail view. Adding -shadow
// also scores the whole predictor stable against every completion and
// prints the resulting scoreboard.
//
// With -regret, the four study workloads are swept through the predictive
// SLO admission experiment (SJF + admission control under injected
// prediction error versus FCFS/always-admit); -err-scales, -biases and
// -headrooms override the sweep grid, and -regret-json writes the full
// machine-readable report.
//
// With -reselect, each study workload (or just -workload) gets a run-time
// step change injected halfway through (-fill sets the post-step run time
// as a fraction of the user limit) and is scheduled twice — template
// predictor pinned versus drift-adaptive re-selection over the stable —
// reporting switches, post-step tail scores, and the Welch-t significance
// of the per-completion asymmetric cost difference.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/obs/accuracy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("qsim", flag.ContinueOnError)
	name := fs.String("workload", "", "study workload (ANL, CTC, SDSC95, SDSC96)")
	in := fs.String("in", "", "SWF trace to read instead of generating")
	nodes := fs.Int("nodes", 0, "machine size when reading SWF (0 = infer)")
	scale := fs.Int("scale", 10, "divide the Table-1 trace size by this factor")
	seed := fs.Int64("seed", 42, "generator seed")
	policy := fs.String("policy", "Backfill", "FCFS, LWF, LWF/blocking, Backfill, or Backfill/EASY")
	kind := fs.String("predictor", "smith", "actual, maxrt, smith, gibbons, downey-avg, downey-med")
	compress := fs.Float64("compress", 1, "divide interarrival times by this factor")
	cancel := fs.Float64("cancel", 0, "make this fraction of jobs cancellable (failure injection)")
	csvOut := fs.String("csv", "", "write the per-job schedule as CSV to this file")
	usageOut := fs.String("usage", "", "write the node-usage timeline as CSV to this file")
	accOn := fs.Bool("accuracy", false, "score every completion and print the prediction-error summary")
	shadowOn := fs.Bool("shadow", false, "with -accuracy, shadow-score the whole predictor stable and print the scoreboard")
	tailCost := fs.Float64("tail-cost", stats.DefaultCostRatio, "asymmetric cost of under-prediction relative to over-prediction")
	reselectOn := fs.Bool("reselect", false, "run the drift-injection re-selection sweep over the study workloads")
	fill := fs.Float64("fill", 0.95, "with -reselect, post-step run time as a fraction of the user limit")
	stepFrac := fs.Float64("step-frac", 0.5, "with -reselect, step position as a fraction of the trace")
	regretOn := fs.Bool("regret", false, "run the predictive-admission regret sweep over the study workloads")
	regretJSON := fs.String("regret-json", "", "with -regret, write the machine-readable report to this file")
	errScales := fs.String("err-scales", "", "with -regret, comma-separated error scales (default 0,0.5,1,2)")
	biases := fs.String("biases", "", "with -regret, comma-separated error sign biases (default -1,0,1)")
	headrooms := fs.String("headrooms", "", "with -regret, comma-separated budget headrooms (default 1,2)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *regretOn {
		return runRegret(stdout, *scale, *seed, *errScales, *biases, *headrooms, *regretJSON)
	}
	if *reselectOn {
		return runReselect(stdout, *name, *scale, *seed, *tailCost, *fill, *stepFrac)
	}

	w, err := loadWorkload(*name, *in, *nodes, *scale, *seed)
	if err != nil {
		return err
	}
	if *compress != 1 {
		w = workload.Compress(w, *compress)
	}
	if *cancel > 0 {
		w = w.InjectCancellations(*cancel, 1800, *seed)
	}
	pol := sched.ByName(*policy)
	if pol == nil {
		return fmt.Errorf("unknown policy %q", *policy)
	}
	pred, err := exp.NewPredictor(exp.PredictorKind(*kind), w)
	if err != nil {
		return err
	}

	var acc *accuracy.Tracker
	var shadow *accuracy.Shadow
	opts := sim.Options{}
	if *accOn {
		acc = accuracy.New(accuracy.WithCostRatio(*tailCost))
		opts.Accuracy = acc
		if *shadowOn {
			stable, err := exp.Stable(w)
			if err != nil {
				return err
			}
			shadow = accuracy.NewShadow(stable,
				accuracy.New(accuracy.WithCostRatio(*tailCost)), 0)
			// OnFinish runs before the serving predictor observes the
			// completion, so the stable scores on the same footing.
			opts.OnFinish = func(now int64, j *workload.Job) {
				shadow.ScoreAndObserve(j, float64(j.RunTime))
			}
		}
	}
	res, err := sim.Run(w, pol, pred, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload    %s (%d jobs, %d nodes)\n", w.Name, len(w.Jobs), w.MachineNodes)
	fmt.Fprintf(stdout, "policy      %s\n", res.Policy)
	fmt.Fprintf(stdout, "predictor   %s\n", res.Predictor)
	fmt.Fprintf(stdout, "utilization %.2f%%\n", 100*res.Utilization)
	fmt.Fprintf(stdout, "mean wait   %.2f minutes\n", res.MeanWaitMinutes())
	fmt.Fprintf(stdout, "wait p50/p90/p99  %.1f / %.1f / %.1f minutes\n",
		res.WaitDist.P50/60, res.WaitDist.P90/60, res.WaitDist.P99/60)
	fmt.Fprintf(stdout, "max wait    %.2f minutes\n", float64(res.MaxWaitSec)/60)
	fmt.Fprintf(stdout, "makespan    %.2f hours\n", float64(res.MakespanSec)/3600)
	fmt.Fprintf(stdout, "predictions %d\n", res.Predictions)
	if res.Cancelled > 0 {
		fmt.Fprintf(stdout, "cancelled   %d jobs withdrawn from the queue\n", res.Cancelled)
	}
	if acc != nil {
		printAccuracy(stdout, acc)
	}
	if shadow != nil {
		printScoreboard(stdout, shadow)
	}

	if *csvOut != "" {
		if err := writeCSV(*csvOut, res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "schedule written to %s\n", *csvOut)
	}
	if *usageOut != "" {
		if err := writeUsageCSV(*usageOut, res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "usage timeline written to %s\n", *usageOut)
	}
	return nil
}

// runRegret executes the predictive-admission regret sweep and prints the
// cell table plus the headline mean-regret-by-scale series per headroom.
func runRegret(stdout io.Writer, scale int, seed int64, errScales, biases, headrooms, jsonOut string) error {
	cfg := exp.DefaultRegretConfig()
	cfg.Scale, cfg.Seed = scale, seed
	var err error
	if cfg.ErrScales, err = overrideFloats(cfg.ErrScales, errScales); err != nil {
		return fmt.Errorf("-err-scales: %w", err)
	}
	if cfg.Biases, err = overrideFloats(cfg.Biases, biases); err != nil {
		return fmt.Errorf("-biases: %w", err)
	}
	if cfg.Headrooms, err = overrideFloats(cfg.Headrooms, headrooms); err != nil {
		return fmt.Errorf("-headrooms: %w", err)
	}
	report, err := exp.RegretExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, exp.TableRegret(report).String())
	for _, h := range cfg.Headrooms {
		mean := report.MeanRegretByScale(h)
		fmt.Fprintf(stdout, "mean regret (headroom %g):", h)
		for _, s := range cfg.ErrScales {
			fmt.Fprintf(stdout, "  err %g -> %.4f", s, mean[s])
		}
		fmt.Fprintln(stdout)
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", jsonOut)
	}
	return nil
}

// overrideFloats parses a comma-separated flag value, keeping the default
// when the flag was not set.
//
// taint: sanitizer rejects sweep lists that are not comma-separated floats
func overrideFloats(def []float64, s string) ([]float64, error) {
	if s == "" {
		return def, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// printAccuracy reports the per-key prediction-error summary accumulated
// during the run (one key per workload name; minutes for readability, as
// in the paper's tables), including the signed tail quantiles and the
// asymmetric cost the TARE view argues schedulers actually pay.
func printAccuracy(stdout io.Writer, acc *accuracy.Tracker) {
	for _, key := range acc.Keys() {
		ks := acc.Snapshot()[key]
		fmt.Fprintf(stdout, "accuracy[%s] scored %d completions (%d over, %d under, %d exact)\n",
			key, ks.Count, ks.Over, ks.Under, ks.Exact)
		fmt.Fprintf(stdout, "accuracy[%s] mean err %.2f min, rms %.2f min, abs p50/p90/p99 %.1f / %.1f / %.1f min\n",
			key, ks.MeanError/60, ks.RMSError/60,
			ks.P50AbsError/60, ks.P90AbsError/60, ks.P99AbsError/60)
		fmt.Fprintf(stdout, "accuracy[%s] signed p50/p90/p99 %.1f / %.1f / %.1f min, asym cost %.2f min (ratio %g), tail score %.2f min\n",
			key, ks.P50Error/60, ks.P90Error/60, ks.P99Error/60,
			ks.MeanAsymCost/60, ks.CostRatio, ks.TailScore/60)
	}
}

// printScoreboard reports the shadow stable's ranking after the run.
func printScoreboard(stdout io.Writer, shadow *accuracy.Shadow) {
	fmt.Fprintln(stdout, "shadow scoreboard (window tail score, minutes; lower is better)")
	for i, e := range shadow.Scoreboard() {
		state := "eligible"
		if !e.Eligible {
			state = "warming"
		}
		fmt.Fprintf(stdout, "  #%d %-16s %10.2f  (%s, %d scored, mean err %.2f min)\n",
			i+1, e.Name, e.Score/60, state, e.Snapshot.Count, e.Snapshot.MeanError/60)
	}
}

// runReselect executes the drift-injection re-selection comparison and
// prints one block per workload: what switched, when, and whether the
// adaptive arm's post-step asymmetric cost beats the pinned baseline.
func runReselect(stdout io.Writer, name string, scale int, seed int64, tailCost, fill, stepFrac float64) error {
	dc := exp.DefaultDriftConfig()
	dc.CostRatio, dc.Fill, dc.StepFrac = tailCost, fill, stepFrac
	var names []string
	if name != "" {
		names = []string{name}
	}
	cfg := exp.DefaultConfig
	cfg.Scale, cfg.Seed = scale, seed
	results, err := exp.ReselectSweep(names, dc, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "drift-injection re-selection sweep (policy Backfill, fill %.2f, step at %.0f%%, cost ratio %g)\n",
		dc.Fill, 100*dc.StepFrac, dc.CostRatio)
	for _, r := range results {
		fmt.Fprintf(stdout, "%s: step at job %d, %d post-step completions\n",
			r.Workload, r.StepAt, r.Baseline.N)
		fmt.Fprintf(stdout, "  baseline %-12s post-step tail %8.1f min, mean asym cost %8.1f min\n",
			r.Baseline.Predictor, r.Baseline.PostTail/60, r.Baseline.PostMeanCost/60)
		fmt.Fprintf(stdout, "  adaptive %-12s post-step tail %8.1f min, mean asym cost %8.1f min\n",
			r.Adaptive.Predictor, r.Adaptive.PostTail/60, r.Adaptive.PostMeanCost/60)
		for _, ev := range r.Adaptive.Events {
			fmt.Fprintf(stdout, "  switch #%d at completion %d: %s -> %s (score %.1f -> %.1f min, drift p=%.2g)\n",
				ev.Seq, ev.Completions, ev.From, ev.To, ev.FromScore/60, ev.ToScore/60, ev.Drift.P)
		}
		if r.Adaptive.Switches == 0 {
			fmt.Fprintln(stdout, "  no switch")
		}
		fmt.Fprintf(stdout, "  welch t=%.2f p=%.3g on per-completion asymmetric cost\n", r.T, r.P)
	}
	return nil
}

func loadWorkload(name, in string, nodes, scale int, seed int64) (*workload.Workload, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close() //lint:allow errdrop read-only file; a close error cannot lose data
		return workload.ReadSWF(f, workload.SWFOptions{Name: in, MachineNodes: nodes})
	}
	if name == "" {
		return nil, fmt.Errorf("need -workload or -in")
	}
	return workload.Study(name, scale, seed)
}

func writeCSV(path string, res *sim.Result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Close errors matter on a written file (buffered data may only hit the
	// disk at close); surface one unless an earlier error is already set.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"id", "user", "queue", "nodes", "submit", "start", "end", "wait", "runtime", "cancelled"}); err != nil {
		return err
	}
	for _, j := range res.Jobs {
		rec := []string{
			strconv.Itoa(j.ID), j.User, j.Queue, strconv.Itoa(j.Nodes),
			strconv.FormatInt(j.SubmitTime, 10), strconv.FormatInt(j.StartTime, 10),
			strconv.FormatInt(j.EndTime, 10), strconv.FormatInt(j.WaitTime(), 10),
			strconv.FormatInt(j.RunTime, 10), strconv.FormatBool(j.Cancelled),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func writeUsageCSV(path string, res *sim.Result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"time", "busy_nodes"}); err != nil {
		return err
	}
	for _, p := range sim.NodeUsage(res.Jobs) {
		if err := cw.Write([]string{
			strconv.FormatInt(p.Time, 10), strconv.Itoa(p.Nodes),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
