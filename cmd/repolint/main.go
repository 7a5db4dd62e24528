// Command repolint runs the repository's custom static-analysis suite
// (internal/lint) over the module: detrand, wallclock, errdrop, lockflow,
// ctxflow, atomicfield, hotpath, goleak, validflow, and boundflow — the
// invariants that keep the paper's tables reproducible, the service
// deadlock- and leak-free, the durable store fed only validated input and
// bounded, and the predict hot path cheap.
//
// Usage:
//
//	repolint [-checks detrand,wallclock,...] [-C dir] [-require sym]... [packages]
//
// Packages default to ./... (the whole module). Diagnostics print as
// file:line:col: message [check], with paths relative to the working
// directory when possible; CI's problem matcher parses exactly this form.
// The exit status is 0 when clean, 1 when any diagnostic is reported, and
// 2 on usage, load, or type-check errors — CI can therefore distinguish
// "the tree has findings" from "the tool could not run".
//
// -require (repeatable) names entry points that must declare a
// // hotpath: contract; the benchmark gate uses it in place of grepping
// for annotations.
// Suppress an individual finding with a justified directive:
//
//	//lint:allow wallclock measures real request latency
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "all", "comma-separated checks to run (see -list)")
	list := fs.Bool("list", false, "list the available checks and exit")
	dir := fs.String("C", "", "run as if started in this directory (module root autodetected from it)")
	var require stringList
	fs.Var(&require, "require", "entry point that must declare a // hotpath: contract (repeatable): <import-path>.<Func> or <import-path>.<Type>.<Method>")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	analyzers, err := lint.ByName(*checks)
	if err != nil {
		return 2, err
	}
	root, err := findModuleRoot(*dir)
	if err != nil {
		return 2, err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return 2, err
	}
	paths, err := loader.ExpandPatterns(fs.Args())
	if err != nil {
		return 2, err
	}
	diags, err := lint.Run(loader, analyzers, paths)
	if err != nil {
		return 2, err
	}
	if len(require) > 0 {
		reqDiags, err := lint.CheckRequired(loader, require)
		if err != nil {
			return 2, err
		}
		diags = append(diags, reqDiags...)
	}
	relativize(diags)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s)\n", len(diags))
		return 1, nil
	}
	return 0, nil
}

// relativize rewrites diagnostic file names relative to the working
// directory when they are inside it, so output (and the CI problem
// matcher, which annotates files by workspace-relative path) stays stable
// across checkout locations.
func relativize(diags []lint.Diagnostic) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		rel, err := filepath.Rel(wd, diags[i].Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		diags[i].Pos.Filename = rel
	}
}

// findModuleRoot walks up from dir (default: the working directory) to the
// nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
