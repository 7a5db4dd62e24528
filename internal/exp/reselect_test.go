package exp

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestStableMembers(t *testing.T) {
	w, err := workload.Study("CTC", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := Stable(w)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"smith", "gibbons", "downey-avg", "maxrt", "globalmean", "smith>maxrt"}
	if len(stable) != len(want) {
		t.Fatalf("stable has %d members, want %d", len(stable), len(want))
	}
	seen := map[string]bool{}
	for i, m := range stable {
		if m.Name != want[i] {
			t.Fatalf("member %d = %q, want %q", i, m.Name, want[i])
		}
		if m.P == nil || m.P.Name() != m.Name {
			t.Fatalf("member %q predictor mismatch", m.Name)
		}
		if seen[m.Name] {
			t.Fatalf("duplicate member %q", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestReselectExperimentEndToEnd is the acceptance test for the control
// loop: the injected step fires drift, the controller leaves the template
// predictor for a shadow winner, and the adaptive arm's post-step tail
// beats the pinned baseline.
func TestReselectExperimentEndToEnd(t *testing.T) {
	w, err := workload.Study("CTC", 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReselectExperiment(w, sched.Backfill{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Reselect || !res.Adaptive.Reselect {
		t.Fatalf("variant labels: %+v / %+v", res.Baseline, res.Adaptive)
	}
	if res.Baseline.Predictor != "smith" {
		t.Fatalf("baseline served %q, want smith", res.Baseline.Predictor)
	}
	if res.Adaptive.Switches < 1 {
		t.Fatalf("no switch fired: %+v", res.Adaptive)
	}
	ev := res.Adaptive.Events[0]
	if ev.From != "smith" || ev.To == "smith" {
		t.Fatalf("first switch %+v, want away from smith", ev)
	}
	if !ev.Drift.Drifting {
		t.Fatalf("switch event without confirmed drift: %+v", ev)
	}
	if !(ev.ToScore < ev.FromScore) {
		t.Fatalf("switched to a worse scoreboard entry: %+v", ev)
	}
	if res.Baseline.N == 0 || res.Baseline.N != res.Adaptive.N {
		t.Fatalf("post-step sample counts differ: %d vs %d", res.Baseline.N, res.Adaptive.N)
	}
	// The headline: adapting reduces the post-step asymmetric cost.
	if !(res.Adaptive.PostMeanCost < res.Baseline.PostMeanCost) {
		t.Fatalf("adaptive post-step cost %.1f not below baseline %.1f",
			res.Adaptive.PostMeanCost, res.Baseline.PostMeanCost)
	}
	if res.P == 0 || res.T == 0 {
		t.Fatalf("Welch comparison missing: t=%v p=%v", res.T, res.P)
	}
}

// TestReselectExperimentDeterministic: same inputs, same result — the
// controller adds no hidden randomness or clock dependence.
func TestReselectExperimentDeterministic(t *testing.T) {
	w, err := workload.Study("SDSC96", 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	pol := sched.ByName("Backfill")
	a, err := ReselectExperiment(w, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReselectExperiment(w, pol)
	if err != nil {
		t.Fatal(err)
	}
	if a.Adaptive.Switches != b.Adaptive.Switches ||
		a.Adaptive.Predictor != b.Adaptive.Predictor ||
		a.Adaptive.PostMeanCost != b.Adaptive.PostMeanCost ||
		a.T != b.T {
		t.Fatalf("nondeterministic experiment:\n%+v\n%+v", a, b)
	}
}
