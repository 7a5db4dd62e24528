package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/callgraph"
)

// GoLeak requires every goroutine started in a daemon package to have a
// termination path. The daemon packages (service, histstore, qwaitd) run
// for the process lifetime and restart subsystems across config reloads;
// a goroutine whose only exit is process death leaks once per restart
// cycle and pins whatever it captured.
//
// The check is structural and interprocedural: the spawned function (a
// literal, a named function, or a method value) diverges when its
// control-flow graph has no path from entry to exit — a `for {}` or
// for-select with no returning case — treating calls to functions that
// themselves diverge as cutting the path. A goroutine that can return is
// fine regardless of how it is shut down; the fix for a divergent one is
// to tie an exit to ctx.Done(), a channel closed on shutdown, or a
// WaitGroup the owner waits on. Spawns the graph cannot resolve (calls
// through function-typed variables or interface methods) are not
// reported: the analyzer is biased toward silence over noise.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "goroutines started in daemon packages (service, histstore, qwaitd) " +
		"must have a termination path (ctx.Done(), a closed channel, or a WaitGroup)",
	AppliesTo: isDaemonPkg,
	Run:       runGoLeak,
}

// daemonPackages are the long-running packages held to the goleak
// invariant, matched by import-path segment (so fixture packages under
// testdata/src/goleak/service are recognised like the real tree).
var daemonPackages = map[string]bool{
	"service":   true,
	"histstore": true,
	"qwaitd":    true,
}

func isDaemonPkg(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if daemonPackages[seg] {
			return true
		}
	}
	return false
}

func runGoLeak(pass *Pass) {
	if pass.Graph == nil {
		return
	}
	info := pass.Pkg.Info
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
			encl := pass.Graph.NodeOf(fn)
			if encl == nil {
				continue
			}
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				g, ok := x.(*ast.GoStmt)
				if !ok {
					return true
				}
				var target *callgraph.Node
				switch fun := ast.Unparen(g.Call.Fun).(type) {
				case *ast.FuncLit:
					target = pass.Graph.FuncLitNode(encl, fun)
				default:
					if callee := calleeFunc(info, g.Call); callee != nil {
						target = pass.Graph.NodeOf(callee)
					}
				}
				if target != nil && pass.Graph.Diverges(target) {
					pass.Reportf(g.Pos(), "goroutine runs %s, which can never return; tie an exit path to ctx.Done(), a channel closed on shutdown, or a WaitGroup", target.Name())
				}
				return true
			})
		}
	}
}
