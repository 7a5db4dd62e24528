package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/taint"
)

// ValidFlow enforces the validate-before-persist invariant
// interprocedurally. Values originating at declared untrusted sources —
// HTTP request decoding in internal/service, SWF trace parsing in
// internal/workload, WAL record decoding, and flag/env grammars in cmd/
// — must pass a declared sanitizer before they reach a durable or
// stateful sink (the history store's WAL append and apply paths, bulk
// category installs, admission's class tables).
//
// The catalog lives next to the code as annotations in function doc
// comments:
//
//	// taint: source HTTP request bodies are attacker-controlled
//	// taint: sanitizer rejects non-positive and non-finite points
//	// taint: sink appended records replay into live categories on open
//
// The justification after the role is mandatory — an unjustified
// annotation is itself a finding — and a small built-in table declares
// the standard-library entry points that mint external input (flag
// value accessors, os.Getenv), since their packages cannot be annotated.
//
// Taint propagates through assignments, composite literals, returns,
// and call edges using memoized per-function summaries over the
// module-wide call graph (internal/lint/taint); interface dispatch is
// resolved conservatively through the implements sets. The diagnostic
// lands on the frontier call in the function under analysis — the
// direct sink call, or the call into the callee whose summary reaches
// the sink — and carries the source, the sink, and the call chain
// between them.
var ValidFlow = &Analyzer{
	Name: "validflow",
	Doc: "values from declared untrusted sources (HTTP decode, SWF/WAL parsing, " +
		"flag/env grammars) must pass a declared sanitizer before reaching " +
		"durable sinks (WAL append, category install, admission tables)",
	Run: runValidFlow,
}

// taintPrefix introduces a catalog annotation in a doc comment.
const taintPrefix = "taint:"

// taintRoles are the annotation grammar's role tokens.
var taintRoles = map[string]bool{"source": true, "sanitizer": true, "sink": true}

// parseTaintDirective parses one comment's raw text (marker included) as
// a // taint: annotation. ok is false when the comment is not a taint
// annotation at all. When ok, role holds the declared role and why its
// justification; errMsg is non-empty for malformed annotations (unknown
// role, or a missing justification — the catalog is load-bearing, so
// every entry must say why the function has its role). The function is
// pure; it is the fuzz surface of the annotation grammar.
func parseTaintDirective(text string) (role, why, errMsg string, ok bool) {
	body, isLine := strings.CutPrefix(text, "//")
	if !isLine {
		return "", "", "", false // block comments cannot carry annotations
	}
	rest, isDirective := strings.CutPrefix(strings.TrimSpace(body), taintPrefix)
	if !isDirective {
		return "", "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", "taint: annotation needs a role (source, sanitizer, or sink) and a justification", true
	}
	role = fields[0]
	if !taintRoles[role] {
		return "", "", "taint: unknown role " + strconv.Quote(role) + " (want source, sanitizer, or sink)", true
	}
	if len(fields) == 1 {
		return role, "", "taint: " + role + " needs a justification after the role", true
	}
	return role, strings.Join(fields[1:], " "), "", true
}

// externTaintSources declares standard-library functions whose results
// (and writable arguments) are external input. Keys are types.Func
// FullName strings.
var externTaintSources = map[string]string{
	"os.Getenv":    "environment variable",
	"os.LookupEnv": "environment variable",
}

func init() {
	// The string-valued flag accessors and binders, on the package-level
	// set and on explicit FlagSets: string flags carry grammars (class
	// tables, file paths, template JSON, workload names) that must pass a
	// validator before configuring durable state. Typed flags (Int,
	// Float64, Duration, Bool) are already grammar-checked by the flag
	// package itself and their value constraints are the consumer's
	// contract, so taint-tracking them drowns the real findings in noise.
	for _, name := range []string{
		"String", "StringVar", "Arg", "Args",
	} {
		externTaintSources["flag."+name] = "command-line flag"
		externTaintSources["(*flag.FlagSet)."+name] = "command-line flag"
	}
}

// taintRoleOf extracts the first well-formed annotation from a declared
// function's doc comment. Malformed annotations are reported separately
// when the annotated package itself is analyzed.
func taintRoleOf(n *callgraph.Node) (role string) {
	if n == nil || n.Decl == nil || n.Decl.Doc == nil {
		return ""
	}
	for _, c := range n.Decl.Doc.List {
		role, _, errMsg, ok := parseTaintDirective(c.Text)
		if ok && errMsg == "" {
			return role
		}
	}
	return ""
}

// taintDescOf renders a source or sink description for diagnostics:
// the function's name qualified by its package.
func taintDescOf(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// newTaintEngine builds the value-flow engine the validflow passes of
// one Run share, with the catalog backed by annotations (resolved
// through the call graph) and the extern source table.
func newTaintEngine(graph *callgraph.Graph) *taint.Engine {
	type roleCache struct {
		role string
	}
	memo := make(map[*types.Func]roleCache)
	roleOf := func(fn *types.Func) string {
		if rc, ok := memo[fn]; ok {
			return rc.role
		}
		role := ""
		if node := graph.NodeOf(fn); node != nil {
			role = taintRoleOf(node)
		} else if _, ok := externTaintSources[fn.FullName()]; ok {
			role = "source"
		}
		memo[fn] = roleCache{role: role}
		return role
	}
	return taint.New(graph, taint.Catalog{
		Source: func(fn *types.Func) (string, bool) {
			if roleOf(fn) != "source" {
				return "", false
			}
			if desc, ok := externTaintSources[fn.FullName()]; ok {
				return desc + " " + fn.Name(), true
			}
			return taintDescOf(fn), true
		},
		Sanitizer: func(fn *types.Func) bool { return roleOf(fn) == "sanitizer" },
		Sink: func(fn *types.Func) (string, bool) {
			if roleOf(fn) != "sink" {
				return "", false
			}
			return taintDescOf(fn), true
		},
	})
}

func runValidFlow(pass *Pass) {
	if pass.Graph == nil || pass.Taint == nil {
		return
	}
	info := pass.Pkg.Info

	// Annotation hygiene: malformed or misplaced directives are findings.
	// A well-formed annotation must be part of a function declaration's
	// doc comment — anywhere else it silently declares nothing, which is
	// worse than an error.
	for _, f := range pass.Pkg.Files {
		docs := make(map[*ast.CommentGroup]bool)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docs[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, _, errMsg, ok := parseTaintDirective(c.Text)
				if !ok {
					continue
				}
				if errMsg != "" {
					pass.Reportf(c.Pos(), "%s", errMsg)
					continue
				}
				if !docs[cg] {
					pass.Reportf(c.Pos(), "taint: annotation must be in a function declaration's doc comment")
				}
			}
		}
	}

	// Flow findings: every declared function's summary, plus the
	// summaries of the function literals its body spawns (goroutines,
	// deferred closures) — their findings belong to this package too.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			root := pass.Graph.NodeOf(fn)
			if root == nil {
				continue
			}
			seen := make(map[*callgraph.Node]bool)
			var visit func(n *callgraph.Node)
			visit = func(n *callgraph.Node) {
				if seen[n] {
					return
				}
				seen[n] = true
				for _, fi := range pass.Taint.Summary(n).Findings {
					pass.Reportf(fi.Pos, "%s", renderTaintFinding(pass, fi))
				}
				for _, e := range pass.Graph.Calls(n) {
					if e.Callee.Lit != nil && e.Callee.Src == n.Src {
						visit(e.Callee)
					}
				}
			}
			visit(root)
		}
	}
}

// renderTaintFinding formats one complete source→sink flow.
func renderTaintFinding(pass *Pass, f taint.Finding) string {
	var b strings.Builder
	b.WriteString("value from ")
	b.WriteString(f.Src.Desc)
	b.WriteString(" (")
	b.WriteString(shortPos(pass, f.Src.Pos))
	b.WriteString(") reaches sink ")
	b.WriteString(f.Sink)
	b.WriteString(" (")
	b.WriteString(shortPos(pass, f.SinkPos))
	b.WriteString(") without passing a declared sanitizer; via ")
	for i, step := range f.Via {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(step.Name)
		if step.Site.IsValid() {
			b.WriteString(" (")
			b.WriteString(shortPos(pass, step.Site))
			b.WriteString(")")
		}
	}
	return b.String()
}

// shortPos renders a position as base-filename:line.
func shortPos(pass *Pass, p token.Pos) string {
	pos := pass.Fset.Position(p)
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}
