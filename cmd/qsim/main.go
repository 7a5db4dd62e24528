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
// The sweeps over many runs (the price-of-misprediction regret sweep and
// the drift re-selection sweep) are tables: go run ./cmd/tables regret
// reselect.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

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
	if err := fs.Parse(args); err != nil {
		return err
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
