package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces trace-context propagation. The tracing layer threads a
// context.Context through the request path (PredictDetailedCtx → GetCtx
// → wal_append spans). Inside any function that has a context.Context
// parameter (closures inherit the enclosing function's ctx), passing
// context.Background() or context.TODO() to a context-taking callee is a
// finding: the caller's own ctx, and the trace riding on it, is thrown
// away, and nothing fails — the trace is just mysteriously shallow.
//
// Whether each request keeps its whole span tree is pinned by a Go test
// over every traced endpoint (TestSpanTrees in internal/service), which
// also catches a call to an entry point that takes no ctx at all.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "Context-propagation analysis: a function holding a " +
		"context.Context must pass its own ctx, not " +
		"context.Background()/TODO(), to context-taking callees, so " +
		"trace span trees stay connected.",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxWalk(pass, fd.Body, funcTypeHasCtx(pass, fd.Type))
		}
	}
}

// ctxWalk checks every call in body. hasCtx reports whether the enclosing
// function (or one it is nested in) has a context.Context parameter in
// scope. Function literals are walked with their own parameter list
// considered first, falling back to the inherited flag — a closure
// capturing ctx is as able to propagate it as its parent.
func ctxWalk(pass *Pass, body *ast.BlockStmt, hasCtx bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ctxWalk(pass, n.Body, hasCtx || funcTypeHasCtx(pass, n.Type))
			return false
		case *ast.CallExpr:
			if hasCtx {
				checkRootContext(pass, n)
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

// checkRootContext reports a context-taking callee fed a fresh root
// context by a caller that holds a ctx of its own.
func checkRootContext(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || len(call.Args) == 0 {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 || !isContextType(sig.Params().At(0).Type()) {
		return
	}
	if name, ok := rootContextCall(pass.Pkg.Info, call.Args[0]); ok {
		pass.Reportf(call.Args[0].Pos(),
			"%s is called with context.%s() although the caller has its own ctx; pass ctx so the trace stays connected",
			fn.Name(), name)
	}
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
