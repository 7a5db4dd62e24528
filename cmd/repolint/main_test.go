package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListPrintsEveryCheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-list"}, &stdout, &stderr)
	if err != nil || code != 0 {
		t.Fatalf("run(-list) = %d, %v", code, err)
	}
	want := []string{
		"detrand", "wallclock", "errdrop", "lockflow", "ctxflow",
		"atomicfield", "hotpath", "goleak", "validflow", "boundflow",
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d checks, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, name := range want {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != name {
			t.Errorf("-list line %d = %q, want check %q", i, lines[i], name)
		}
	}
}

func TestUnknownCheckIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-checks", "nosuch"}, &stdout, &stderr)
	if code != 2 || err == nil {
		t.Fatalf("run(-checks nosuch) = %d, %v; want exit 2 and an error", code, err)
	}
}

// TestUnknownFormatIsUsageError: text is the only output, so -format is
// not a flag and asking for any format is a usage error.
func TestUnknownFormatIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code, _ := run([]string{"-format", "json"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "-format") {
		t.Fatalf("run(-format json) = %d, stderr %q; want exit 2 naming the flag", code, stderr.String())
	}
}

// TestCleanRunExitsZero pins the exit-0 half of the contract: a clean run
// over one package prints nothing and exits 0 with no error.
func TestCleanRunExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-C", "..", "-checks", "detrand", "./internal/lint/cfg"}, &stdout, &stderr)
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v\n%s", code, err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

// writeTempModule lays down a one-package module for driving the binary
// end-to-end against known-dirty or known-broken trees.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExitCodeOneOnFindings pins the exit-code contract: findings exit 1,
// with no tool error.
func TestExitCodeOneOnFindings(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"a.go": "package a\n\nimport \"os\"\n\nfunc f() { os.Remove(\"x\") }\n",
	})
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-C", dir, "-checks", "errdrop", "./..."}, &stdout, &stderr)
	if err != nil || code != 1 {
		t.Fatalf("run over a dirty tree = %d, %v; want exit 1 and no error\n%s", code, err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "errdrop") {
		t.Errorf("finding not printed:\n%s", stdout.String())
	}
}

// TestExitCodeTwoOnTypeError pins the other half of the contract: a tree
// that does not type-check exits 2, so CI can tell "findings" from "the
// tool could not run".
func TestExitCodeTwoOnTypeError(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"a.go": "package a\n\nfunc f() { undefined() }\n",
	})
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 2 || err == nil {
		t.Fatalf("run over a broken tree = %d, %v; want exit 2 and an error", code, err)
	}
}

// TestRequireContract pins the -require contract: a required entry point
// without a // hotpath: annotation is a finding (exit 1), and a symbol
// the type checker cannot resolve is a tool error (exit 2) — a rename
// must fail the gate loudly, not retire the check.
func TestRequireContract(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"a.go": "package a\n\n// hotpath: no-lock no-clock\nfunc Fast() {}\n\nfunc Slow() {}\n",
	})
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-C", dir, "-checks", "hotpath", "-require", "tmpmod.Fast", "./..."}, &stdout, &stderr)
	if err != nil || code != 0 {
		t.Fatalf("contracted entry point: run = %d, %v\n%s", code, err, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	code, err = run([]string{"-C", dir, "-checks", "hotpath", "-require", "tmpmod.Slow", "./..."}, &stdout, &stderr)
	if err != nil || code != 1 {
		t.Fatalf("uncontracted entry point: run = %d, %v; want exit 1\n%s", code, err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "declares no // hotpath: contract") {
		t.Errorf("missing-contract finding not printed:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	code, err = run([]string{"-C", dir, "-checks", "hotpath", "-require", "tmpmod.Renamed", "./..."}, &stdout, &stderr)
	if code != 2 || err == nil {
		t.Fatalf("stale symbol: run = %d, %v; want exit 2 and an error", code, err)
	}
}
