package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/callgraph"
)

// CtxFlow enforces trace-context propagation. The tracing layer threads a
// context.Context through the request path (PredictDetailedCtx → GetCtx
// → wal_append spans); a single call to the ctx-less variant of an API
// silently severs the span tree below it, and nothing fails — the trace
// is just mysteriously shallow. So, inside any function that has a
// context.Context parameter (closures inherit the enclosing function's
// ctx), calling a module function or method f for which an "fCtx" sibling
// exists is a finding: the variant must be called, with this function's
// ctx. Passing context.Background() or context.TODO() to a
// context-taking callee while the caller has a perfectly good ctx of its
// own is reported for the same reason.
//
// The severing call need not be direct: a ctx-less helper with no *Ctx
// sibling of its own can bury the Get call three frames down. When the
// driver built a call graph, a ctx-holding caller invoking such a helper
// is reported too, with the path to the API that has a variant. The walk
// is conservative: it follows static module calls only, and stops at any
// callee that accepts a ctx itself (that callee's own callers are
// responsible for what it was given).
//
// Only callees whose package the driver loaded with syntax (this module,
// or fixture packages under test) are held to the rule: the standard
// library's foo/fooContext pairs have different semantics and stay out of
// scope.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "Context-propagation analysis: a function holding a " +
		"context.Context must call the *Ctx variant of any module API " +
		"that has one — directly or through ctx-less helpers (resolved " +
		"via the call graph) — passing its own ctx rather than " +
		"context.Background()/TODO(), so trace span trees stay connected.",
	Run: runCtxFlow,
}

// ctxDrop is a transitive context-severing path: chain leads from the
// first callee inside the summarized function to the API that has a *Ctx
// variant (the chain's last element).
type ctxDrop struct {
	chain   []*types.Func
	variant *types.Func
}

// ctxAnalysis carries the per-run memo of transitive drop summaries.
type ctxAnalysis struct {
	pass     *Pass
	memo     map[*types.Func]*ctxDrop
	visiting map[*types.Func]bool
}

func runCtxFlow(pass *Pass) {
	a := &ctxAnalysis{
		pass:     pass,
		memo:     make(map[*types.Func]*ctxDrop),
		visiting: make(map[*types.Func]bool),
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.ctxWalk(fd.Body, fd.Name.Name, funcTypeHasCtx(pass, fd.Type))
		}
	}
}

// ctxWalk checks every call in body. hasCtx reports whether the enclosing
// function (or one it is nested in) has a context.Context parameter in
// scope; caller is the enclosing FuncDecl's name, used to recognise the
// delegation pattern. Function literals are walked with their own
// parameter list considered first, falling back to the inherited flag — a
// closure capturing ctx is as able to propagate it as its parent.
func (a *ctxAnalysis) ctxWalk(body *ast.BlockStmt, caller string, hasCtx bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.ctxWalk(n.Body, caller, hasCtx || funcTypeHasCtx(a.pass, n.Type))
			return false
		case *ast.CallExpr:
			if hasCtx {
				a.checkCall(n, caller)
			}
		}
		return true
	})
}

// funcTypeHasCtx reports whether a function type declares a
// context.Context parameter.
func funcTypeHasCtx(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, fl := range ft.Params.List {
		if tv, ok := pass.Pkg.Info.Types[fl.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCall inspects one call made while a ctx is in scope.
func (a *ctxAnalysis) checkCall(call *ast.CallExpr, caller string) {
	pass := a.pass
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	// A context-taking callee fed a fresh root context: the caller's own
	// ctx (and the trace riding on it) is thrown away.
	if sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type()) && len(call.Args) > 0 {
		if name, ok := rootContextCall(pass.Pkg.Info, call.Args[0]); ok {
			pass.Reportf(call.Args[0].Pos(),
				"%s is called with context.%s() although the caller has its own ctx; pass ctx so the trace stays connected",
				fn.Name(), name)
		}
		return
	}
	// Ctx-less call to a module API that has a *Ctx sibling.
	if !moduleCallee(pass, fn) {
		return
	}
	variant := ctxVariant(fn, sig)
	if variant == nil {
		// No variant of its own: does it reach one through ctx-less module
		// helpers the call graph can see?
		a.checkTransitive(call, fn, sig)
		return
	}
	// The delegation pattern: FooCtx's own body calling Foo is the
	// variant's implementation, not a dropped context.
	if caller == variant.Name() && fn.Pkg() == pass.Pkg.Types {
		return
	}
	pass.Reportf(call.Pos(),
		"call to %s drops the caller's ctx; call %s with it so the trace stays connected",
		fn.Name(), variant.Name())
}

// checkTransitive reports a ctx-holding caller invoking a ctx-less module
// function whose body reaches, through other ctx-less module functions, an
// API that does have a *Ctx variant: the context is severed just as surely
// as by the direct call, only harder to see.
func (a *ctxAnalysis) checkTransitive(call *ast.CallExpr, fn *types.Func, sig *types.Signature) {
	if a.pass.Graph == nil || sigHasCtx(sig) {
		return
	}
	d := a.dropOf(fn)
	if d == nil {
		return
	}
	names := make([]string, 0, len(d.chain)+1)
	names = append(names, fn.Name())
	for _, f := range d.chain {
		names = append(names, f.Name())
	}
	target := d.chain[len(d.chain)-1]
	a.pass.Reportf(call.Pos(),
		"call to %s drops the caller's ctx before it reaches %s, which has a %s variant; plumb ctx through (path: %s)",
		fn.Name(), target.Name(), d.variant.Name(), strings.Join(names, " → "))
}

// dropOf summarizes (memoized) whether fn's body transitively reaches a
// module API that has a *Ctx variant without a context crossing any hop.
func (a *ctxAnalysis) dropOf(fn *types.Func) *ctxDrop {
	if d, done := a.memo[fn]; done {
		return d
	}
	if a.visiting[fn] {
		return nil // recursion: a severing path surfaces on the acyclic route
	}
	a.visiting[fn] = true
	defer delete(a.visiting, fn)
	n := a.pass.Graph.NodeOf(fn)
	var d *ctxDrop
	if n != nil && n.Decl != nil {
		d = a.dropFromNode(n, make(map[*callgraph.Node]bool))
	}
	a.memo[fn] = d
	return d
}

// dropFromNode scans one node's static outgoing edges. Nested function
// literals count as part of the enclosing function; dynamic (interface
// dispatch) edges are skipped — over-approximating them here would flag
// every caller of every interface, which is noise, not analysis.
func (a *ctxAnalysis) dropFromNode(n *callgraph.Node, seen map[*callgraph.Node]bool) *ctxDrop {
	if seen[n] {
		return nil
	}
	seen[n] = true
	for _, e := range a.pass.Graph.Calls(n) {
		c := e.Callee
		if e.Dynamic {
			continue
		}
		if c.Fn == nil {
			if d := a.dropFromNode(c, seen); d != nil {
				return d
			}
			continue
		}
		csig, ok := c.Fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		if v := ctxVariant(c.Fn, csig); v != nil {
			return &ctxDrop{chain: []*types.Func{c.Fn}, variant: v}
		}
		if sigHasCtx(csig) {
			continue // takes a ctx itself; what it was handed is its caller's business
		}
		if d := a.dropOf(c.Fn); d != nil {
			return &ctxDrop{chain: append([]*types.Func{c.Fn}, d.chain...), variant: d.variant}
		}
	}
	return nil
}

// sigHasCtx reports whether any parameter of sig is a context.Context.
func sigHasCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// moduleCallee reports whether fn's package was loaded with syntax — the
// module's own packages (or test fixtures), as opposed to the standard
// library.
func moduleCallee(pass *Pass, fn *types.Func) bool {
	if fn.Pkg() == pass.Pkg.Types {
		return true
	}
	return pass.Lookup != nil && pass.Lookup(fn.Pkg().Path()) != nil
}

// ctxVariant finds a sibling of fn named fn.Name()+"Ctx" whose signature
// is fn's with a leading context.Context parameter: the shape the module
// uses for trace-propagating variants. Methods are looked up on the
// receiver type (so embedding works); package functions in the package
// scope.
func ctxVariant(fn *types.Func, sig *types.Signature) *types.Func {
	name := fn.Name() + "Ctx"
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
	} else {
		obj = fn.Pkg().Scope().Lookup(name)
	}
	v, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	vsig, ok := v.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if vsig.Params().Len() != sig.Params().Len()+1 {
		return nil
	}
	if vsig.Params().Len() == 0 || !isContextType(vsig.Params().At(0).Type()) {
		return nil
	}
	return v
}

// rootContextCall matches context.Background() and context.TODO(),
// returning the function name.
func rootContextCall(info *types.Info, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	name, ok := pkgSelector(info, call.Fun, "context")
	if !ok || (name != "Background" && name != "TODO") {
		return "", false
	}
	return name, true
}
