package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "table6", "table15", "section4", "walkforward"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %s:\n%s", want, out.String())
		}
	}
}

func TestSingleTable(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scale", "100", "table1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 1") || !strings.Contains(out.String(), "ANL") {
		t.Fatalf("output:\n%s", out.String())
	}
	// Only the requested table is produced.
	if strings.Contains(out.String(), "Table 10") {
		t.Fatal("unrequested table rendered")
	}
}

func TestSchedulingTables(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scale", "100", "-timing", "table10", "table11"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 10") || !strings.Contains(s, "Table 11") {
		t.Fatalf("output:\n%s", s)
	}
	if !strings.Contains(s, "took") {
		t.Fatal("timing lines missing")
	}
}

func TestUnknownTable(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"table99"}, &out, &errOut); err == nil {
		t.Fatal("unknown table id should error")
	}
}

func TestLoadTemplatesFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "anl.json")
	if err := os.WriteFile(path, []byte(`[{"chars":["u"],"pred":"mean"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	err := run([]string{"-scale", "100", "-templates", "ANL=" + path, "table1"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "loaded 1 templates for ANL") {
		t.Fatalf("stderr:\n%s", errOut.String())
	}

	// Malformed specs fail.
	for _, spec := range []string{"ANL", "NERSC=" + path, "ANL=/missing.json"} {
		if err := run([]string{"-templates", spec, "table1"}, &out, &errOut); err == nil {
			t.Errorf("spec %q should error", spec)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scale", "200", "-json", "table1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var obj struct {
		ID      string     `json:"id"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(out.String())), &obj); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if obj.ID != "Table 1" || len(obj.Rows) != 4 {
		t.Fatalf("JSON = %+v", obj)
	}
}

// TestRegretSweep runs the price-of-misprediction regret sweep, ending in
// its mean-regret-by-scale series.
func TestRegretSweep(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scale", "100", "regret"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Regret. Price of misprediction", "fcfs-always", "sjf-admit"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	// 2 headrooms x 4 error scales of mean regret.
	if n := strings.Count(s, "\nall "); n != 8 {
		t.Errorf("%d mean-regret rows, want 8:\n%s", n, s)
	}
}

// TestReselectSweep runs the drift re-selection sweep, one row per arm of
// each study workload.
func TestReselectSweep(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scale", "100", "reselect"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Re-selection. Drift-injection", "baseline", "adaptive", "Welch t"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	// 4 workloads x 2 arms.
	if n := strings.Count(s, " adaptive "); n != 4 {
		t.Errorf("%d adaptive rows, want 4:\n%s", n, s)
	}
}
