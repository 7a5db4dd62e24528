package lint

import (
	"fmt"
	"go/token"
	"os"
	"strings"
)

// directive is one parsed //lint:allow comment.
type directive struct {
	pos        token.Position
	checks     []string
	justified  bool // non-empty justification after the check list
	standalone bool // comment is the only thing on its line
}

// directivePrefix introduces a suppression comment: //lint:allow <checks> <why>.
const directivePrefix = "lint:allow"

// parseAllowDirective parses one comment's raw text (as in ast.Comment.Text,
// marker included) as a //lint:allow directive. ok is false when the comment
// is not a directive at all — block comments, unrelated line comments, and
// fused prefixes like "//lint:allowother" all fall through. When ok, checks
// holds the comma-separated check names (possibly empty) and justified
// reports whether any prose follows them. The function is pure — it is the
// piece of directive handling that faces arbitrary source text, so it is
// what the fuzz target drives.
func parseAllowDirective(text string) (checks []string, justified, ok bool) {
	body, isLine := strings.CutPrefix(text, "//")
	if !isLine {
		return nil, false, false // /* */ comments cannot carry directives
	}
	rest, isDirective := strings.CutPrefix(strings.TrimSpace(body), directivePrefix)
	if !isDirective {
		return nil, false, false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false, false // e.g. "lint:allowother"
	}
	fields := strings.Fields(rest)
	if len(fields) > 0 {
		for _, name := range strings.Split(fields[0], ",") {
			if name != "" {
				checks = append(checks, name)
			}
		}
		justified = len(fields) > 1 && len(checks) > 0
	}
	return checks, justified, true
}

// collectDirectives extracts every //lint:allow directive from a package's
// files. Determining whether a directive is standalone (and therefore
// applies to the following line) requires the raw source line, so the file
// is re-read from disk; a file that cannot be read yields no directives.
func collectDirectives(fset *token.FileSet, pkg *Package) []directive {
	var out []directive
	lines := make(map[string][]string) // filename -> source lines
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checks, justified, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				d := directive{pos: pos, checks: checks, justified: justified}
				src, cached := lines[pos.Filename]
				if !cached {
					data, err := os.ReadFile(pos.Filename)
					if err == nil {
						src = strings.Split(string(data), "\n")
					}
					lines[pos.Filename] = src
				}
				if pos.Line-1 < len(src) {
					before := src[pos.Line-1]
					if pos.Column-1 <= len(before) {
						d.standalone = strings.TrimSpace(before[:pos.Column-1]) == ""
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// Run executes the analyzers over the packages, applies //lint:allow
// suppression, and reports malformed directives. Diagnostics come back
// sorted by position.
//
// Suppression is module-wide: interprocedural analyzers (hotpath) report
// at effect sites that can live in a *different* package than the one
// under analysis, and the justification belongs next to the effect, so
// after the analyzed packages' directives are validated and indexed, the
// directives of every other package the loader has seen source for are
// indexed too (without validation — malformed directives are reported
// only when their own package is analyzed, so they surface exactly once).
func Run(loader *Loader, analyzers []*Analyzer, paths []string) ([]Diagnostic, error) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}

	graph := newCallGraph(loader)
	var raw, diags []Diagnostic // raw awaits suppression; diags are directive findings

	// suppressed[file][line][check]: a trailing directive covers its own
	// line; a standalone directive covers the line below it.
	suppressed := make(map[string]map[int]map[string]bool)
	index := func(d directive) {
		for _, check := range d.checks {
			if !known[check] {
				continue
			}
			line := d.pos.Line
			if d.standalone {
				line++
			}
			if suppressed[d.pos.Filename] == nil {
				suppressed[d.pos.Filename] = make(map[int]map[string]bool)
			}
			if suppressed[d.pos.Filename][line] == nil {
				suppressed[d.pos.Filename][line] = make(map[string]bool)
			}
			suppressed[d.pos.Filename][line][check] = true
		}
	}

	analyzed := make(map[string]bool)
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		analyzed[pkg.Path] = true
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: loader.Fset, Pkg: pkg, Graph: graph, diags: &raw}
			a.Run(pass)
		}
		for _, d := range collectDirectives(loader.Fset, pkg) {
			if len(d.checks) == 0 {
				diags = append(diags, Diagnostic{
					Check: "directive", Pos: d.pos,
					Message: "//lint:allow needs a check name and a justification",
				})
				continue
			}
			for _, check := range d.checks {
				if !known[check] {
					diags = append(diags, Diagnostic{
						Check: "directive", Pos: d.pos,
						Message: fmt.Sprintf("//lint:allow names unknown check %q", check),
					})
					continue
				}
				if !d.justified {
					diags = append(diags, Diagnostic{
						Check: "directive", Pos: d.pos,
						Message: "//lint:allow " + check + " needs a justification after the check name",
					})
				}
			}
			index(d)
		}
	}
	for _, pkg := range loader.AllLoaded() {
		if analyzed[pkg.Path] {
			continue
		}
		for _, d := range collectDirectives(loader.Fset, pkg) {
			index(d)
		}
	}
	for _, d := range raw {
		if !suppressed[d.Pos.Filename][d.Pos.Line][d.Check] {
			diags = append(diags, d)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}
