package exp

import (
	"fmt"
	"math"

	"repro/internal/admission"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the price-of-misprediction (regret) experiment for the
// predictive SLO admission control loop: how much scheduler and admission
// performance is lost as the run-time predictions driving them degrade?
//
// Two schemes run on each study workload:
//
//   - fcfs-always: FCFS with every job admitted — the paper's baseline
//     scheduler with no prediction consumer at all;
//   - sjf-admit: SJF ordered by the (noise-injected) predictions, behind
//     the admission controller whose wait estimates come from forward
//     simulation under the same noisy predictor.
//
// The noise is predict.Noisy over the oracle, so the error scale and sign
// bias are exact experimental knobs: scale 0 is perfect prediction, and
// the regret of a cell is its SLO cost minus the cost of the same
// configuration at scale 0 (Mitzenmacher's price of misprediction,
// arXiv 1902.00732, measured on the paper's workloads). Costs are
// tail-weighted: a shed job costs 1, an admitted job costs its budget
// overrun ratio capped at maxOverrunCost — the asymmetric accounting TARE
// (arXiv 2607.04935) argues schedulers actually face.

// RegretConfig scopes the regret sweep.
type RegretConfig struct {
	Config
	// ErrScales are the injected error magnitudes (0 = perfect predictions;
	// scale s distorts each prediction by up to e^±s).
	ErrScales []float64
	// Biases are the noise sign biases (+1 only over-predicts, -1 only
	// under-predicts, 0 symmetric). Scale 0 runs only with bias 0 — all
	// biases collapse to the identity there.
	Biases []float64
	// Headrooms are the admission budget multipliers to sweep.
	Headrooms []float64
}

// DefaultRegretConfig sizes the sweep to run in well under a minute while
// covering both signs of error and both directions of the headroom knob.
func DefaultRegretConfig() RegretConfig {
	return RegretConfig{
		Config:    Config{Scale: 10, Seed: 42},
		ErrScales: []float64{0, 0.5, 1, 2},
		Biases:    []float64{-1, 0, 1},
		Headrooms: []float64{1, 2},
	}
}

// RegretClasses is the SLO class table of the regret experiment: the
// admission controller's default three-tier contract.
func RegretClasses() map[string]admission.ClassConfig {
	return admission.DefaultClasses()
}

// RegretClassOf assigns a job's SLO class deterministically from its ID
// (20% interactive, 50% standard, 30% batch). The job's own Class field is
// deliberately not consulted: the CTC workload generator conditions on it
// (DSI/PIOFS), so overwriting or reusing it would entangle the SLO mix
// with one trace's job characteristics.
func RegretClassOf(j *workload.Job) string {
	switch m := j.ID % 10; {
	case m <= 1:
		return "interactive"
	case m <= 6:
		return "standard"
	default:
		return "batch"
	}
}

// maxOverrunCost caps one admitted job's cost at this multiple of its
// budget, so a single pathological wait cannot dominate a cell.
const maxOverrunCost = 2.0

// shedCost is the cost of rejecting a job outright: worse than meeting the
// budget, better than the worst admitted overrun.
const shedCost = 1.0

// RegretCell is one (workload, scheme, error, headroom) point of the sweep.
type RegretCell struct {
	Workload string  `json:"workload"`
	Scheme   string  `json:"scheme"`
	ErrScale float64 `json:"errScale"`
	Bias     float64 `json:"bias"`
	Headroom float64 `json:"headroom"`

	Arrivals    int     `json:"arrivals"`
	Shed        int     `json:"shed"`
	ShedRate    float64 `json:"shedRate"`
	MeanWaitMin float64 `json:"meanWaitMin"` // admitted jobs
	Utilization float64 `json:"utilization"` // fraction of capacity over the makespan
	GoodputFrac float64 `json:"goodputFrac"` // completed work / offered work

	// Attainment is the fraction of non-shed jobs of each class that met
	// the class wait budget, plus an "all" aggregate.
	Attainment map[string]float64 `json:"attainment"`

	// Cost is the mean per-arrival SLO cost; Regret is the cost increase
	// over the same configuration at error scale 0 (always 0 there, and
	// meaningless for the prediction-free baseline scheme).
	Cost   float64 `json:"cost"`
	Regret float64 `json:"regret"`

	// WaitVsBaselineP is the Welch p-value of the admitted-wait difference
	// against the fcfs-always baseline on the same workload;
	// WaitBelowBaseline reports a significantly lower mean (p < 0.05).
	WaitVsBaselineP   float64 `json:"waitVsBaselineP,omitempty"`
	WaitBelowBaseline bool    `json:"waitBelowBaseline,omitempty"`
}

// RegretReport is the machine-readable result of the sweep.
type RegretReport struct {
	Scale     int                              `json:"scale"`
	Seed      int64                            `json:"seed"`
	Classes   map[string]admission.ClassConfig `json:"classes"`
	ErrScales []float64                        `json:"errScales"`
	Biases    []float64                        `json:"biases"`
	Headrooms []float64                        `json:"headrooms"`
	Cells     []RegretCell                     `json:"cells"`
}

// schemeRun is the raw material of one cell before scoring.
type schemeRun struct {
	res   *sim.Result
	waits stats.Moments
}

// scoreCell fills a cell's outcome fields from a finished run.
func scoreCell(cell *RegretCell, run schemeRun, classes map[string]admission.ClassConfig, offeredWork int64) {
	attainedBy := map[string]int{}
	totalBy := map[string]int{}
	var cost float64
	var goodWork int64
	arrivals := 0
	for _, j := range run.res.Jobs {
		if j.Cancelled {
			continue
		}
		arrivals++
		if j.Shed {
			cost += shedCost
			continue
		}
		goodWork += j.Work()
		cls := RegretClassOf(j)
		budget := classes[cls].WaitBudgetSec
		totalBy[cls]++
		totalBy["all"]++
		if budget == 0 || j.WaitTime() <= budget {
			attainedBy[cls]++
			attainedBy["all"]++
			continue
		}
		over := float64(j.WaitTime()-budget) / float64(budget)
		if over > maxOverrunCost {
			over = maxOverrunCost
		}
		cost += over
	}
	cell.Arrivals = arrivals
	cell.Shed = run.res.Shed
	if arrivals > 0 {
		cell.ShedRate = float64(run.res.Shed) / float64(arrivals)
		cell.Cost = cost / float64(arrivals)
	}
	cell.MeanWaitMin = run.res.MeanWaitMinutes()
	cell.Utilization = run.res.Utilization
	if offeredWork > 0 {
		cell.GoodputFrac = float64(goodWork) / float64(offeredWork)
	}
	cell.Attainment = map[string]float64{}
	for cls, total := range totalBy {
		cell.Attainment[cls] = float64(attainedBy[cls]) / float64(total)
	}
}

// collectWaits summarizes the admitted jobs' waits for the Welch test.
func collectWaits(res *sim.Result) stats.Moments {
	var m stats.Moments
	for _, j := range res.Jobs {
		if j.Cancelled || j.Shed {
			continue
		}
		m.Add(float64(j.WaitTime()))
	}
	return m
}

// runBaseline runs fcfs-always: FCFS, no admission, no predictions used.
func runBaseline(w *workload.Workload) (schemeRun, error) {
	res, err := sim.Run(w, sched.FCFS{}, predict.MaxRuntime{}, sim.Options{})
	if err != nil {
		return schemeRun{}, err
	}
	return schemeRun{res: res, waits: collectWaits(res)}, nil
}

// runPredictive runs sjf-admit: SJF ordered by the noisy predictions with
// the admission controller estimating waits by forward simulation under
// the same noisy predictor and policy.
func runPredictive(w *workload.Workload, pred predict.Predictor,
	classes map[string]admission.ClassConfig, headroom float64, defaultRT int64) (schemeRun, error) {

	pol := sched.SJF{}
	acfg := admission.Config{
		Classes:      classes,
		DefaultClass: "standard",
		Headroom:     headroom,
		Classifier:   RegretClassOf,
		TotalNodes:   w.MachineNodes,
		Policy:       pol,
		Predictor:    pred,
		Decision:     pred, // the simulated scheduler is the real one: both rank by the noisy estimates
		DefaultRT:    defaultRT,
	}
	// The headroom sweep values come from a flag; validate the assembled
	// config before the class tables are built from it.
	if err := acfg.Validate(); err != nil {
		return schemeRun{}, err
	}
	ctrl, err := admission.New(acfg)
	if err != nil {
		return schemeRun{}, err
	}
	var opts sim.Options
	ctrl.Attach(&opts)
	res, err := sim.Run(w, pol, pred, opts)
	if err != nil {
		return schemeRun{}, err
	}
	return schemeRun{res: res, waits: collectWaits(res)}, nil
}

// welchAgainst fills the Welch comparison fields of a cell.
func welchAgainst(cell *RegretCell, run, baseline schemeRun) {
	t, err := stats.WelchTMoments(run.waits, baseline.waits)
	if err != nil {
		return
	}
	cell.WaitVsBaselineP = t.P
	cell.WaitBelowBaseline = t.T < 0 && t.P < 0.05
}

// RegretExperiment runs the full sweep: on each study workload, the
// fcfs-always baseline once, then sjf-admit at every (error scale, bias,
// headroom) combination, scoring each cell and computing regret against
// the zero-error cell of the same configuration.
func RegretExperiment(cfg RegretConfig) (*RegretReport, error) {
	if len(cfg.ErrScales) == 0 || len(cfg.Headrooms) == 0 {
		return nil, fmt.Errorf("exp: regret sweep needs error scales and headrooms")
	}
	biases := cfg.Biases
	if len(biases) == 0 {
		biases = []float64{0}
	}
	defaultRT := cfg.DefaultRT
	if defaultRT <= 0 {
		defaultRT = predict.DefaultRuntime
	}
	classes := RegretClasses()
	ws, err := studyWorkloads(cfg.Config)
	if err != nil {
		return nil, err
	}

	report := &RegretReport{
		Scale: cfg.Scale, Seed: cfg.Seed, Classes: classes,
		ErrScales: cfg.ErrScales, Biases: biases, Headrooms: cfg.Headrooms,
	}
	for _, w := range ws {
		offered := int64(0)
		for _, j := range w.Jobs {
			offered += j.Work()
		}
		baseline, err := runBaseline(w)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", w.Name, err)
		}
		base := RegretCell{Workload: w.Name, Scheme: "fcfs-always", Headroom: 1}
		scoreCell(&base, baseline, classes, offered)
		report.Cells = append(report.Cells, base)

		for _, headroom := range cfg.Headrooms {
			// The zero-error anchor runs exactly once per headroom (every
			// bias collapses to the identity at scale 0) and its cost is the
			// baseline every noisy cell's regret is measured against.
			anchor := RegretCell{Workload: w.Name, Scheme: "sjf-admit", Headroom: headroom}
			run, err := runPredictive(w,
				predict.Noisy{Inner: predict.Oracle{}, Seed: cfg.Seed}, classes, headroom, defaultRT)
			if err != nil {
				return nil, fmt.Errorf("%s sjf-admit anchor: %w", w.Name, err)
			}
			scoreCell(&anchor, run, classes, offered)
			welchAgainst(&anchor, run, baseline)
			report.Cells = append(report.Cells, anchor)

			for _, scale := range cfg.ErrScales {
				if scale == 0 {
					continue // covered by the anchor cell
				}
				for _, bias := range biases {
					pred := predict.Noisy{Inner: predict.Oracle{}, Scale: scale, Bias: bias, Seed: cfg.Seed}
					run, err := runPredictive(w, pred, classes, headroom, defaultRT)
					if err != nil {
						return nil, fmt.Errorf("%s sjf-admit scale %g: %w", w.Name, scale, err)
					}
					cell := RegretCell{
						Workload: w.Name, Scheme: "sjf-admit",
						ErrScale: scale, Bias: bias, Headroom: headroom,
					}
					scoreCell(&cell, run, classes, offered)
					welchAgainst(&cell, run, baseline)
					cell.Regret = cell.Cost - anchor.Cost
					report.Cells = append(report.Cells, cell)
				}
			}
		}
	}
	return report, nil
}

// MeanRegretByScale aggregates a report's sjf-admit cells at one headroom:
// mean regret per error scale across all workloads and biases — the series
// whose monotone growth is the experiment's headline claim.
func (r *RegretReport) MeanRegretByScale(headroom float64) map[float64]float64 {
	sum := map[float64]float64{}
	n := map[float64]int{}
	for _, c := range r.Cells {
		if c.Scheme != "sjf-admit" || c.Headroom != headroom {
			continue
		}
		sum[c.ErrScale] += c.Regret
		n[c.ErrScale]++
	}
	out := map[float64]float64{}
	for scale, s := range sum {
		out[scale] = s / float64(n[scale])
	}
	return out
}

// TableRegret renders the report in the repository's table idiom: one row
// per cell, attainment by class, cost and regret.
func TableRegret(r *RegretReport) *Table {
	t := &Table{
		ID:      "Regret",
		Caption: "Price of misprediction: SJF + predictive SLO admission vs FCFS/always-admit",
		Headers: []string{"Workload", "Scheme", "Err", "Bias", "Headroom",
			"MeanWait(min)", "Shed%", "SLO(int)", "SLO(std)", "SLO(batch)", "SLO(all)", "Cost", "Regret", "p(vs FCFS)"},
	}
	fmtAttain := func(c RegretCell, cls string) string {
		v, ok := c.Attainment[cls]
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*v)
	}
	for _, c := range r.Cells {
		p := "-"
		if c.Scheme == "sjf-admit" && !math.IsNaN(c.WaitVsBaselineP) && c.WaitVsBaselineP > 0 {
			p = fmt.Sprintf("%.3f", c.WaitVsBaselineP)
			if c.WaitBelowBaseline {
				p += "*"
			}
		}
		t.Rows = append(t.Rows, []string{
			c.Workload, c.Scheme,
			fmt.Sprintf("%.1f", c.ErrScale), fmt.Sprintf("%+.0f", c.Bias),
			fmt.Sprintf("%.1f", c.Headroom),
			fmt.Sprintf("%.1f", c.MeanWaitMin),
			fmt.Sprintf("%.1f%%", 100*c.ShedRate),
			fmtAttain(c, "interactive"), fmtAttain(c, "standard"), fmtAttain(c, "batch"), fmtAttain(c, "all"),
			fmt.Sprintf("%.4f", c.Cost), fmt.Sprintf("%.4f", c.Regret),
			p,
		})
	}
	return t
}
