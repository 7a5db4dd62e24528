// Command tables is the repository's one experiment driver. It regenerates
// every table of the paper (Tables 1 and 4–15), the §4
// interarrival-compression experiment, and the repository's ablations,
// future-work, validation and sweep experiments, printing them in the
// paper's layout (or as JSON with -json).
//
// Usage:
//
//	tables [-scale N] [-seed S] [-list] [-search] [-templates SPEC] [table ids...]
//
// With no ids, every table is produced. Scale divides the Table-1 trace
// sizes (scale 1 = full size; the default 10 runs the full suite in under a
// minute). -search first runs the paper's GA template search per workload;
// -templates loads searched sets produced by gasearch -o.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ga"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	scale := fs.Int("scale", 10, "divide Table-1 trace sizes by this factor (1 = full size)")
	seed := fs.Int64("seed", 42, "workload generator seed")
	list := fs.Bool("list", false, "list table identifiers and exit")
	timing := fs.Bool("timing", false, "print per-table wall-clock time")
	asJSON := fs.Bool("json", false, "emit tables as JSON objects (one per line)")
	search := fs.Bool("search", false, "GA-search template sets per workload before running (as the paper does)")
	templates := fs.String("templates", "",
		"load searched template sets, e.g. ANL=anl.json,CTC=ctc.json (from gasearch -o)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	all := exp.AllTables()
	if *list {
		for _, e := range all {
			fmt.Fprintln(stdout, e.ID)
		}
		return nil
	}

	want := map[string]bool{}
	for _, a := range fs.Args() {
		want[a] = true
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.ID] = true
	}
	for id := range want {
		if !known[id] {
			return fmt.Errorf("unknown table %q (use -list)", id)
		}
	}

	cfg := exp.Config{Scale: *scale, Seed: *seed}
	if *templates != "" {
		if err := loadTemplates(*templates, stderr); err != nil {
			return fmt.Errorf("-templates: %w", err)
		}
	}
	if *search {
		if err := searchTemplates(cfg, stderr); err != nil {
			return fmt.Errorf("template search: %w", err)
		}
	}
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		t, err := e.Fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *asJSON {
			data, err := json.Marshal(t)
			if err != nil {
				return fmt.Errorf("json: %w", err)
			}
			fmt.Fprintln(stdout, string(data))
		} else if err := t.Render(stdout); err != nil {
			return fmt.Errorf("render: %w", err)
		}
		if *timing {
			fmt.Fprintf(stdout, "[%s took %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// searchTemplates runs the paper's GA template search once per study
// workload (on a reduced sample for speed) and installs the best sets for
// the "smith" predictor via exp.SetTemplates. The paper searches per
// algorithm/trace pair; one set per trace captures most of the benefit at a
// fraction of the cost.
func searchTemplates(cfg exp.Config, stderr io.Writer) error {
	searchScale := cfg.Scale * 4
	if searchScale < 20 {
		searchScale = 20
	}
	for i, name := range workload.StudyNames {
		w, err := workload.Study(name, searchScale, cfg.Seed+int64(i)*1000)
		if err != nil {
			return err
		}
		enc := ga.NewEncoding(w)
		res, err := ga.Search(enc, ga.RuntimeError(ga.FromTrace(w)), ga.Config{
			PopSize: 20, Generations: 15, Seed: 1, Now: time.Now,
		})
		if err != nil {
			return err
		}
		exp.SetTemplates(name, res.Best)
		fmt.Fprintf(stderr, "searched %s: %d templates, fitness error %.1f min\n",
			name, len(res.Best), res.BestError/60)
	}
	return nil
}

// loadTemplates parses "-templates WORKLOAD=file[,WORKLOAD=file...]" and
// installs each JSON template set (produced by gasearch -o) for its
// workload.
func loadTemplates(spec string, stderr io.Writer) error {
	for _, pair := range strings.Split(spec, ",") {
		name, file, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return fmt.Errorf("malformed entry %q (want WORKLOAD=file)", pair)
		}
		known := false
		for _, n := range workload.StudyNames {
			if n == name {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("unknown workload %q (want one of %v)", name, workload.StudyNames)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		ts, err := core.UnmarshalTemplates(data)
		if err != nil {
			return fmt.Errorf("%s: %v", file, err)
		}
		exp.SetTemplates(name, ts)
		fmt.Fprintf(stderr, "loaded %d templates for %s from %s\n", len(ts), name, file)
	}
	return nil
}
