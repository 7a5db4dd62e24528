package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/lint/callgraph"
)

// HotPath enforces declared hot-path contracts interprocedurally. A
// function annotated in its doc comment with
//
//	// hotpath: no-lock no-alloc no-clock
//
// must not reach, on any call path the module-wide call graph can see, an
// operation forbidden by the listed tokens:
//
//	no-lock   mutex/RWMutex acquisition, Once.Do, WaitGroup.Wait,
//	          Cond.Wait — and blocking channel operations (send, receive,
//	          select without default, range over a channel, time.Sleep):
//	          a hot path stalled on a channel is as serialized as one
//	          waiting on a mutex
//	no-alloc  heap allocation sites: make/new/append, pointer and
//	          slice/map composite literals, map writes, non-constant
//	          string concatenation, string<->[]byte conversions,
//	          allocating fmt/strconv/strings calls, and boxing a concrete
//	          value into an interface-typed argument
//	no-clock  time.Now / time.Since / time.Until
//	no-go     starting a goroutine
//
// The diagnostic lands on the offending operation (possibly in another
// package — put the //lint:allow justification there) and carries the
// full call chain from the annotated root.
//
// A callee annotated with its own contract is a verified boundary: the
// traversal trusts it for the effect kinds it declares and does not
// descend (its own analysis run proves the claim). A callee annotated
//
//	// hotpath: exempt <justification>
//
// is skipped entirely — for nil-guarded instrumentation plumbing and
// warm-up-only paths whose cost is not on the steady-state hot path; the
// justification is mandatory.
//
// This is the static counterpart of the benchmark trajectory: the bench
// gate proves the entry points allocation-free on the configurations it
// runs; this analyzer proves no code path — measured or not — can
// reintroduce a lock, allocation, or clock read.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "functions declaring a // hotpath: contract must not reach locks, " +
		"allocations, clock reads, or blocked channels on any call path",
	Run: runHotPath,
}

// hotpathPrefix introduces both annotation forms.
const hotpathPrefix = "hotpath:"

// hotpathTokens maps contract tokens to the effect kinds they forbid.
var hotpathTokens = map[string]callgraph.EffectKind{
	"no-lock":  callgraph.Lock | callgraph.Chan,
	"no-alloc": callgraph.Alloc,
	"no-clock": callgraph.Clock,
	"no-go":    callgraph.Go,
}

// hotpathToken renders the contract token an effect kind violates.
func hotpathToken(k callgraph.EffectKind) string {
	switch {
	case k&(callgraph.Lock|callgraph.Chan) != 0:
		return "no-lock"
	case k&callgraph.Alloc != 0:
		return "no-alloc"
	case k&callgraph.Clock != 0:
		return "no-clock"
	case k&callgraph.Go != 0:
		return "no-go"
	}
	return k.String()
}

// parseHotpathDirective parses one comment's raw text (marker included)
// as a // hotpath: annotation. ok is false when the comment is not a
// hotpath annotation at all. When ok, either exempt is true (boundary
// exemption), or mask holds the union of the contract tokens' effect
// kinds. errMsg is non-empty for malformed annotations: an unknown
// token, an empty contract, or an exemption without a justification.
// The function is pure; it is the fuzz surface of the annotation
// grammar.
func parseHotpathDirective(text string) (mask callgraph.EffectKind, exempt bool, errMsg string, ok bool) {
	body, isLine := strings.CutPrefix(text, "//")
	if !isLine {
		return 0, false, "", false // block comments cannot carry annotations
	}
	rest, isDirective := strings.CutPrefix(strings.TrimSpace(body), hotpathPrefix)
	if !isDirective {
		return 0, false, "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return 0, false, "hotpath: annotation needs tokens (no-lock no-alloc no-clock no-go) or 'exempt <justification>'", true
	}
	if fields[0] == "exempt" {
		if len(fields) == 1 {
			return 0, true, "hotpath: exempt needs a justification", true
		}
		return 0, true, "", true
	}
	for _, tok := range fields {
		kind, known := hotpathTokens[tok]
		if !known {
			return 0, false, "hotpath: unknown token " + strconv.Quote(tok) + " (want no-lock, no-alloc, no-clock, no-go)", true
		}
		mask |= kind
	}
	return mask, false, "", true
}

// hotpathContract extracts the (well-formed) annotation from a doc
// comment group: the declared effect mask, or exempt. Malformed
// annotations are reported separately by the analyzer on the annotated
// package only, so cross-package boundary lookups stay silent.
func hotpathContract(doc *ast.CommentGroup) (mask callgraph.EffectKind, exempt bool) {
	if doc == nil {
		return 0, false
	}
	for _, c := range doc.List {
		m, ex, errMsg, ok := parseHotpathDirective(c.Text)
		if !ok || errMsg != "" {
			continue
		}
		if ex {
			return 0, true
		}
		mask |= m
	}
	return mask, false
}

// nodeContract looks up the contract on a call-graph node's declaration.
// Function literals inherit nothing: only declared functions carry
// contracts.
func nodeContract(n *callgraph.Node) (callgraph.EffectKind, bool) {
	if n == nil || n.Decl == nil {
		return 0, false
	}
	return hotpathContract(n.Decl.Doc)
}

func runHotPath(pass *Pass) {
	if pass.Graph == nil {
		return
	}
	boundary := func(n *callgraph.Node) callgraph.EffectKind {
		mask, exempt := nodeContract(n)
		if exempt {
			return callgraph.AllEffects
		}
		return mask
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			var mask callgraph.EffectKind
			for _, c := range fd.Doc.List {
				m, _, errMsg, ok := parseHotpathDirective(c.Text)
				if !ok {
					continue
				}
				if errMsg != "" {
					pass.Reportf(c.Pos(), "%s", errMsg)
					continue
				}
				mask |= m
			}
			if mask == 0 || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			root := pass.Graph.NodeOf(fn)
			if root == nil {
				continue
			}
			for _, finding := range pass.Graph.Reach(root, mask, boundary) {
				pass.Reportf(finding.Effect.Pos, "%s, violating the %s contract on %s; call chain: %s",
					finding.Effect.Desc, hotpathToken(finding.Effect.Kind), fd.Name.Name,
					renderChain(pass, finding))
			}
		}
	}
}

// renderChain formats a finding's call chain root-first, annotating each
// hop with the call site (file:line) inside that function that leads to
// the next one.
func renderChain(pass *Pass, f callgraph.Finding) string {
	var b strings.Builder
	for i, step := range f.Chain {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(step.Node.Name())
		if step.Site.IsValid() {
			pos := pass.Fset.Position(step.Site)
			b.WriteString(" (")
			b.WriteString(filepath.Base(pos.Filename))
			b.WriteString(":")
			b.WriteString(strconv.Itoa(pos.Line))
			b.WriteString(")")
		}
	}
	return b.String()
}
