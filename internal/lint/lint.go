// Package lint is the repository's static-analysis framework: a small
// go/analysis-style driver (analyzers, passes, diagnostics, suppression
// directives) built only on the standard library's go/ast, go/parser,
// go/types, and go/importer packages, so the module stays dependency-free.
//
// The paper's tables are reproducible only because every stochastic
// component runs from explicitly seeded RNGs and a simulated clock; a
// single stray time.Now or global math/rand call silently destroys
// bit-for-bit reproducibility. The analyzers in this package turn those
// conventions — and a few general hygiene rules — into machine-checked
// invariants. cmd/repolint is the command-line driver; CI runs it on every
// push.
//
// A finding can be suppressed with a justified directive on the offending
// line (or on its own line immediately above):
//
//	//lint:allow wallclock measures real scheduler latency, not sim time
//
// The justification is mandatory: a bare //lint:allow is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/callgraph"
)

// Analyzer is one named check. Run inspects a single type-checked package
// through the Pass and reports findings.
type Analyzer struct {
	// Name identifies the check in diagnostics and in //lint:allow
	// directives. It is a short lowercase word.
	Name string
	// Doc is a one-paragraph description: what the check enforces and why.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts. A nil AppliesTo means every package.
	AppliesTo func(pkgPath string) bool
	// Run performs the analysis.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Graph is the module-wide call graph shared by every analyzer in one
	// Run: lazy, memoized, spanning all packages the loader has loaded
	// with syntax. Interprocedural analyzers (hotpath, goleak, and the
	// cross-package summaries of lockflow) traverse it. May be nil in
	// hand-built passes; analyzers must tolerate that.
	Graph *callgraph.Graph
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

// String renders the diagnostic in the conventional
// file:line:col: message [check] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Check)
}

// sortDiagnostics orders findings by file, line, column, then check name,
// so output is deterministic regardless of analyzer scheduling.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DetRand,
		WallClock,
		ErrDrop,
		LockFlow,
		CtxFlow,
		AtomicField,
		HotPath,
		GoLeak,
		BoundFlow,
	}
}

// ByName returns the analyzers selected by a comma-separated list of check
// names ("all" or "" selects the whole suite).
func ByName(list string) ([]*Analyzer, error) {
	if list == "" || list == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// deterministicPackages are the package names whose code must be
// reproducible bit-for-bit: the simulator, schedulers, GA search, workload
// synthesis, predictors, the statistics they feed, and the tracing and
// accuracy layers those paths call into (their clocks are injected and
// their sampling is seeded; only the cmd/ edges opt into wall time). Any
// package whose import path contains one of these as a path segment is
// held to the detrand and wallclock invariants.
var deterministicPackages = map[string]bool{
	"sim":       true,
	"sched":     true,
	"admission": true,
	"ga":        true,
	"metasim":   true,
	"waitpred":  true,
	"predict":   true,
	"workload":  true,
	"stats":     true,
	"core":      true,
	"trace":     true,
	"accuracy":  true,
}

// isDeterministicPkg reports whether the import path names one of the
// packages that must stay deterministic. Matching is by path segment so
// subpackages (predict/downey, predict/gibbons) inherit the constraint and
// the test-fixture packages under testdata/src/<check>/sim are recognised
// the same way the real tree is.
func isDeterministicPkg(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if deterministicPackages[seg] {
			return true
		}
	}
	return false
}

// pkgSelector reports whether expr is a selector into one of the named
// packages (matched by import path), returning the selected identifier.
// Method selectors on values do not match; only direct references to
// package-level names do.
func pkgSelector(info *types.Info, expr ast.Expr, pkgPaths ...string) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	for _, p := range pkgPaths {
		if pn.Imported().Path() == p {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for indirect calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
