package exp

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestRegretClassOfDistribution(t *testing.T) {
	counts := map[string]int{}
	for id := 0; id < 1000; id++ {
		counts[RegretClassOf(&workload.Job{ID: id})]++
	}
	want := map[string]int{"interactive": 200, "standard": 500, "batch": 300}
	for cls, n := range want {
		if counts[cls] != n {
			t.Errorf("class %s: %d jobs per 1000, want %d", cls, counts[cls], n)
		}
	}
	// Deterministic: the class is a pure function of the ID.
	j := &workload.Job{ID: 7, Class: "DSI"}
	if RegretClassOf(j) != "batch" || RegretClassOf(j) != RegretClassOf(&workload.Job{ID: 7}) {
		t.Errorf("class of ID 7 = %s, want batch regardless of Class field", RegretClassOf(j))
	}
}

func TestRegretConfigValidation(t *testing.T) {
	if _, err := RegretExperiment(RegretConfig{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

// TestRegretExperimentAcceptance runs the committed default sweep and checks
// the experiment's two qualitative claims: with perfect predictions the
// predictive stack dominates the FCFS/always-admit baseline on most
// workloads, and mean regret grows monotonically with the injected error
// scale at headroom 1.
func TestRegretExperimentAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	cfg := DefaultRegretConfig()
	r, err := RegretExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}

	baselines := map[string]RegretCell{}
	zeroErr := map[string]RegretCell{} // headroom 1 anchors
	for _, c := range r.Cells {
		if c.ShedRate < 0 || c.ShedRate > 1 {
			t.Errorf("%s %s: shed rate %v", c.Workload, c.Scheme, c.ShedRate)
		}
		switch {
		case c.Scheme == "fcfs-always":
			baselines[c.Workload] = c
		case c.ErrScale == 0 && c.Headroom == 1:
			zeroErr[c.Workload] = c
			if c.Regret != 0 {
				t.Errorf("%s anchor regret = %v, want 0", c.Workload, c.Regret)
			}
		}
	}
	if len(baselines) != 4 || len(zeroErr) != 4 {
		t.Fatalf("cells cover %d baselines / %d anchors, want 4/4", len(baselines), len(zeroErr))
	}

	dominated := 0
	for name, base := range baselines {
		z := zeroErr[name]
		if z.MeanWaitMin < base.MeanWaitMin &&
			z.Attainment["all"] >= base.Attainment["all"] && z.WaitBelowBaseline {
			dominated++
		} else {
			t.Logf("%s: not dominated (wait %.1f vs %.1f, SLO %.2f vs %.2f)",
				name, z.MeanWaitMin, base.MeanWaitMin, z.Attainment["all"], base.Attainment["all"])
		}
	}
	if dominated < 3 {
		t.Errorf("zero-error dominance on %d/4 workloads, want >= 3", dominated)
	}

	mean := r.MeanRegretByScale(1)
	scales := make([]float64, 0, len(mean))
	for s := range mean {
		scales = append(scales, s)
	}
	sort.Float64s(scales)
	if len(scales) != len(cfg.ErrScales) {
		t.Fatalf("regret series over %d scales, want %d", len(scales), len(cfg.ErrScales))
	}
	if mean[0] != 0 {
		t.Errorf("mean regret at scale 0 = %v, want 0", mean[0])
	}
	for i := 1; i < len(scales); i++ {
		if mean[scales[i]] < mean[scales[i-1]] {
			t.Errorf("mean regret not monotone: scale %g -> %v after scale %g -> %v",
				scales[i], mean[scales[i]], scales[i-1], mean[scales[i-1]])
		}
	}
	if mean[scales[len(scales)-1]] <= 0 {
		t.Errorf("mean regret at max scale = %v, want > 0", mean[scales[len(scales)-1]])
	}
}

func TestRegretReportRenderAndJSON(t *testing.T) {
	cfg := RegretConfig{
		Config:    Config{Scale: 100, Seed: 7},
		ErrScales: []float64{0, 1},
		Biases:    []float64{0},
		Headrooms: []float64{1},
	}
	r, err := RegretExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 workloads x (1 baseline + 1 anchor + 1 noisy cell).
	if len(r.Cells) != 12 {
		t.Fatalf("%d cells, want 12", len(r.Cells))
	}

	text := TableRegret(r).String()
	for _, want := range []string{"fcfs-always", "sjf-admit", "Regret", "SLO(all)"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}

	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back RegretReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(r.Cells) || back.Scale != cfg.Scale {
		t.Fatalf("round-trip lost cells: %d/%d", len(back.Cells), len(r.Cells))
	}
	if back.Classes["interactive"].WaitBudgetSec != 600 {
		t.Errorf("classes did not survive JSON: %+v", back.Classes)
	}
}
