package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/predict"
	"repro/internal/workload"
)

// The template-predictor ablations of DESIGN.md §5 replay the ANL trace's
// submission-order prediction workload (ga.FromTrace: predict each job at
// submission, insert it at completion) and report the mean absolute
// run-time prediction error in minutes.

// ablationWorkload is the ANL study trace and its prediction workload.
func ablationWorkload(cfg Config) (*workload.Workload, ga.PredWorkload, error) {
	w, err := workload.Study("ANL", cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	return w, ga.FromTrace(w), nil
}

// replayMinutes is p's mean absolute error over pw, in minutes.
func replayMinutes(pw ga.PredWorkload, p predict.Predictor) string {
	return fmt.Sprintf("%.2f", ga.BaselineErrors(pw, []predict.Predictor{p})[p.Name()]/60)
}

// AblationSearch compares the paper's genetic-algorithm template search
// with the greedy search (the paper's earlier work found the GA superior):
// the best template set's error under each.
func AblationSearch(cfg Config) (*Table, error) {
	w, pw, err := ablationWorkload(cfg)
	if err != nil {
		return nil, err
	}
	enc := ga.NewEncoding(w)
	eval := ga.RuntimeError(pw)
	gr, err := ga.Search(enc, eval, ga.Config{PopSize: 24, Generations: 25, Seed: 1})
	if err != nil {
		return nil, err
	}
	gd, err := ga.GreedySearch(enc, eval, ga.CandidatePool(enc))
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "Ablation A3",
		Caption: "Template search on ANL: best template set's mean run-time prediction error (minutes)",
		Headers: []string{"Search", "Templates", "Mean Error"},
		Rows: [][]string{
			{"genetic", fmt.Sprintf("%d", len(gr.Best)), fmt.Sprintf("%.2f", gr.BestError/60)},
			{"greedy", fmt.Sprintf("%d", len(gd.Best)), fmt.Sprintf("%.2f", gd.BestError/60)},
		},
	}, nil
}

// AblationPredictor varies one design choice of the template predictor at a
// time: estimate selection (the paper's smallest confidence interval
// against Gibbons-style first match, over the default template set), the
// within-category prediction type, and the maximum history, the last two
// over a single (user, executable) template (the paper found the mean
// best).
func AblationPredictor(cfg Config) (*Table, error) {
	w, pw, err := ablationWorkload(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Ablation A4",
		Caption: "Template predictor design on ANL: mean run-time prediction error (minutes)",
		Headers: []string{"Choice", "Variant", "Mean Error"},
	}
	ts := core.DefaultTemplates(w.Chars, w.HasMaxRT)
	t.Rows = append(t.Rows,
		[]string{"selection", "smallest-ci", replayMinutes(pw, core.New(ts))},
		[]string{"selection", "first-match", replayMinutes(pw, core.New(ts, core.WithFirstMatch()))},
	)
	userExec := workload.MaskOf(workload.CharUser, workload.CharExec)
	for pt := core.PredType(0); pt < core.NumPredTypes; pt++ {
		tpl := core.Template{Chars: userExec, Pred: pt}
		t.Rows = append(t.Rows, []string{"prediction", pt.String(), replayMinutes(pw, core.New([]core.Template{tpl}))})
	}
	for _, h := range []int{4, 64, 1024, 0} {
		name := fmt.Sprintf("h%d", h)
		if h == 0 {
			name = "unlimited"
		}
		tpl := core.Template{Chars: userExec, MaxHistory: h, Pred: core.PredMean}
		t.Rows = append(t.Rows, []string{"history", name, replayMinutes(pw, core.New([]core.Template{tpl}))})
	}
	return t, nil
}
