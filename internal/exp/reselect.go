package exp

import (
	"fmt"
	"strings"

	"repro/internal/obs/accuracy"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The drift-injection experiment: prove end-to-end that the re-selection
// controller earns its keep. A step change is injected into a study
// workload (every post-step job runs at a fixed fraction of its maximum
// run time — InjectRuntimeStep), which makes any history-trained
// predictor under-predict by most of the limit while the maximum-run-time
// predictor becomes near-exact by construction. The workload is then
// scheduled twice: once with the template predictor pinned (baseline),
// once under a Reselector over the full stable. Both variants score every
// post-step completion identically — the serving estimate immediately
// before the predictor observes it — and the variants are compared by
// per-completion asymmetric cost with a Welch t-test.

// Stable builds the full predictor stable for w: the template predictor
// (first — re-selection starts from it), Gibbons, Downey, maximum run
// times, the global mean, and the deployment chain smith>maxrt. Every
// member is a fresh instance so shadow training is independent.
func Stable(w *workload.Workload) ([]accuracy.Member, error) {
	smith, err := NewPredictor(KindSmith, w)
	if err != nil {
		return nil, err
	}
	gib, err := NewPredictor(KindGibbons, w)
	if err != nil {
		return nil, err
	}
	dow, err := NewPredictor(KindDowneyAvg, w)
	if err != nil {
		return nil, err
	}
	chainSmith, err := NewPredictor(KindSmith, w)
	if err != nil {
		return nil, err
	}
	chain := predict.NewChain(chainSmith, predict.MaxRuntime{})
	return []accuracy.Member{
		{Name: smith.Name(), P: smith},
		{Name: gib.Name(), P: gib},
		{Name: dow.Name(), P: dow},
		{Name: predict.MaxRuntime{}.Name(), P: predict.MaxRuntime{}},
		{Name: (&predict.RunningMean{}).Name(), P: &predict.RunningMean{}},
		{Name: chain.Name(), P: chain},
	}, nil
}

// The injected regime change and the controller's settings: the step sits
// halfway through the trace, every post-step job runs at 95% of its
// maximum run time, and the serving and shadow streams score over a window
// of 32 completions with at least 64 completions between switches.
const (
	driftStepFrac = 0.5
	driftFill     = 0.95
	driftWindow   = 32
	driftDwell    = 2 * driftWindow
)

// ReselectVariant is one arm of the comparison.
type ReselectVariant struct {
	Reselect     bool
	Predictor    string // serving predictor at the end of the run
	Switches     int64
	Events       []accuracy.SwitchEvent
	N            int       // post-step completions scored
	PostTail     float64   // TailCompositeSample over post-step signed errors
	PostMeanCost float64   // mean per-completion asymmetric cost
	costs        []float64 // per-completion asymmetric cost, for the t-test
}

// ReselectResult is one workload's baseline-versus-adaptive comparison.
type ReselectResult struct {
	Workload string
	StepAt   int
	Baseline ReselectVariant
	Adaptive ReselectVariant
	// T and P compare the two variants' per-completion post-step
	// asymmetric costs (Welch, two-sided).
	T float64
	P float64
}

// ReselectExperiment runs the drift-injection comparison on one workload.
func ReselectExperiment(w *workload.Workload, pol sim.Policy) (ReselectResult, error) {
	stepAt := int(driftStepFrac * float64(len(w.Jobs)))
	wl := w.InjectRuntimeStep(stepAt, driftFill)
	post := make(map[int]bool, len(wl.Jobs)-stepAt)
	for _, j := range wl.Jobs[stepAt:] {
		post[j.ID] = true
	}

	base, err := reselectVariant(wl, pol, post, false)
	if err != nil {
		return ReselectResult{}, err
	}
	adapt, err := reselectVariant(wl, pol, post, true)
	if err != nil {
		return ReselectResult{}, err
	}
	out := ReselectResult{
		Workload: w.Name, StepAt: stepAt,
		Baseline: base, Adaptive: adapt,
	}
	var mb, ma stats.Moments
	for _, c := range base.costs {
		mb.Add(c)
	}
	for _, c := range adapt.costs {
		ma.Add(c)
	}
	if r, err := stats.WelchTMoments(ma, mb); err == nil {
		out.T, out.P = r.T, r.P
	}
	return out, nil
}

// reselectVariant schedules wl once, serving either the pinned template
// predictor or the full re-selection pipeline, and scores every post-step
// completion with the estimate in force immediately before the predictor
// observes it.
func reselectVariant(wl *workload.Workload, pol sim.Policy, post map[int]bool, reselect bool) (ReselectVariant, error) {
	stable, err := Stable(wl)
	if err != nil {
		return ReselectVariant{}, err
	}
	var pred predict.Predictor = stable[0].P
	var r *accuracy.Reselector
	if reselect {
		sw := predict.NewSwitchable(stable[0].P)
		shadowTr := accuracy.New(accuracy.WithWindow(driftWindow), accuracy.WithCostRatio(stats.DefaultCostRatio))
		sh := accuracy.NewShadow(stable, shadowTr, driftWindow)
		serving := accuracy.New(
			accuracy.WithWindow(driftWindow),
			accuracy.WithMinBaseline(driftWindow),
			accuracy.WithCostRatio(stats.DefaultCostRatio),
		)
		r = accuracy.NewReselector(sw, sh, serving, accuracy.ReselectConfig{MinDwell: driftDwell})
		pred = r
	}

	v := ReselectVariant{Reselect: reselect}
	var errs []float64
	opts := sim.Options{
		// OnFinish runs before the engine feeds the completion to the
		// predictor, so the estimate is the one a queued job would have
		// been given at this instant.
		OnFinish: func(now int64, j *workload.Job) {
			if !post[j.ID] {
				return
			}
			e := float64(predict.Estimate(pred, j, 0, predict.DefaultRuntime) - j.RunTime)
			errs = append(errs, e)
			v.costs = append(v.costs, stats.AsymCost(e, stats.DefaultCostRatio))
		},
	}
	if _, err := sim.Run(wl, pol, pred, opts); err != nil {
		return ReselectVariant{}, err
	}
	v.Predictor = pred.Name()
	if r != nil {
		v.Switches = r.Switches()
		v.Events = r.Events()
	}
	v.N = len(errs)
	if len(errs) > 0 {
		v.PostTail = stats.TailCompositeSample(errs, stats.DefaultCostRatio)
		var m stats.Moments
		for _, c := range v.costs {
			m.Add(c)
		}
		v.PostMeanCost = m.Mean
	}
	return v, nil
}

// TableReselect runs the drift-injection comparison on every study
// workload under Backfill and renders one row per arm: the serving
// predictor at the end of the run, the switches the adaptive arm made
// (target@completion), the post-step tail score and mean asymmetric cost,
// and on the adaptive row the Welch t-test of the two arms' per-completion
// costs.
func TableReselect(cfg Config) (*Table, error) {
	t := &Table{
		ID: "Re-selection",
		Caption: fmt.Sprintf("Drift-injection re-selection under Backfill: run times step to %.0f%% of the limit at %.0f%% of the trace (cost ratio %g)",
			100*driftFill, 100*driftStepFrac, stats.DefaultCostRatio),
		Headers: []string{"Workload", "StepAt", "PostStep", "Arm", "Predictor", "Switches",
			"PostTail(min)", "MeanAsymCost(min)", "Welch t", "p"},
	}
	for i, name := range workload.StudyNames {
		w, err := workload.Study(name, cfg.Scale, cfg.Seed+int64(i)*1000)
		if err != nil {
			return nil, err
		}
		r, err := ReselectExperiment(w, sched.Backfill{})
		if err != nil {
			return nil, fmt.Errorf("reselect %s: %w", name, err)
		}
		for _, v := range []ReselectVariant{r.Baseline, r.Adaptive} {
			arm, switches, tt, p := "baseline", "-", "-", "-"
			if v.Reselect {
				arm, tt, p = "adaptive", fmt.Sprintf("%.2f", r.T), fmt.Sprintf("%.3g", r.P)
				var path []string
				for _, ev := range v.Events {
					path = append(path, fmt.Sprintf("%s@%d", ev.To, ev.Completions))
				}
				if len(path) > 0 {
					switches = strings.Join(path, " ")
				}
			}
			t.Rows = append(t.Rows, []string{
				r.Workload, fmt.Sprintf("%d", r.StepAt), fmt.Sprintf("%d", v.N), arm, v.Predictor, switches,
				fmt.Sprintf("%.1f", v.PostTail/60), fmt.Sprintf("%.1f", v.PostMeanCost/60), tt, p,
			})
		}
	}
	return t, nil
}
