package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-workload", "SDSC95", "-scale", "100", "-policy", "LWF",
		"-predictor", "actual"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"utilization", "mean wait", "policy      LWF", "predictor   actual"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunCSVOutputs(t *testing.T) {
	dir := t.TempDir()
	sched := filepath.Join(dir, "sched.csv")
	usage := filepath.Join(dir, "usage.csv")
	var sb strings.Builder
	err := run([]string{"-workload", "ANL", "-scale", "100", "-predictor", "maxrt",
		"-csv", sched, "-usage", usage}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{sched, usage} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(recs) < 2 {
			t.Fatalf("%s: only %d rows", p, len(recs))
		}
	}
}

func TestRunWithCancellations(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-workload", "SDSC96", "-scale", "50", "-predictor", "maxrt",
		"-compress", "8", "-cancel", "0.5"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// Cancellation line appears only when jobs were withdrawn; at this load
	// some should be.
	if !strings.Contains(sb.String(), "cancelled") {
		t.Logf("no cancellations fired; output:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("no workload should error")
	}
	if err := run([]string{"-workload", "ANL", "-scale", "200", "-policy", "EDF"}, &sb); err == nil {
		t.Error("unknown policy should error")
	}
	if err := run([]string{"-workload", "ANL", "-scale", "200", "-predictor", "psychic"}, &sb); err == nil {
		t.Error("unknown predictor should error")
	}
	if err := run([]string{"-in", "/nonexistent.swf"}, &sb); err == nil {
		t.Error("missing trace should error")
	}
}

func TestRunAccuracySummary(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-workload", "SDSC95", "-scale", "100", "-predictor", "smith",
		"-accuracy"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"accuracy[SDSC95] scored", "mean err", "rms", "abs p50/p90/p99",
		"signed p50/p90/p99", "asym cost", "(ratio 2)", "tail score"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Without the flag the summary stays out of the report.
	sb.Reset()
	if err := run([]string{"-workload", "SDSC95", "-scale", "100", "-predictor", "smith"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "accuracy[") {
		t.Fatalf("accuracy printed without -accuracy:\n%s", sb.String())
	}
}

func TestRunAccuracyShadowScoreboard(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-workload", "CTC", "-scale", "100", "-predictor", "smith",
		"-accuracy", "-shadow", "-tail-cost", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"shadow scoreboard", "(ratio 4)",
		"smith", "gibbons", "downey-avg", "maxrt", "globalmean", "smith>maxrt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "#") < 6 {
		t.Fatalf("scoreboard should rank all six stable members:\n%s", out)
	}
}
