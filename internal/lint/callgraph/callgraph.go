// Package callgraph builds a module-wide static call graph over the
// packages the lint loader has in memory, computes per-function effect
// summaries (lock acquisition, allocation, channel blocking, wall-clock
// reads, goroutine starts), and runs interprocedural reachability queries
// over them. It is the substrate for the hotpath and goleak analyzers and
// for the cross-package callee summaries of lockflow.
//
// The graph is conservative but deliberately cheap:
//
//   - Static calls resolve through go/types (direct functions, methods on
//     concrete receivers, and calls through function-valued references
//     where the reference names a declared function).
//   - Function literals become their own nodes; every literal appearing in
//     a function's body gets a call edge from that function, because the
//     analyses here care about what code *can* run on behalf of the
//     function, not whether it certainly does.
//   - Calls through interface methods fan out to every concrete type in
//     the loaded source packages whose method set implements the
//     interface (the "implements set"), computed once per interface
//     method and memoized.
//   - Callees without source (the standard library, loaded from export
//     data) contribute no edges; their effects come from a small table of
//     known functions (time.Now, sync locking, fmt formatting).
//
// Everything is memoized on the Graph, which the lint runner keeps for
// the lifetime of one load, so the cost of building summaries is paid
// once per function per run no matter how many analyzers consult them.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Source is one package loaded with syntax: the slice of the lint
// loader's Package the graph needs. (callgraph cannot import the lint
// package itself — lint imports callgraph — so the runner converts.)
type Source struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Graph is the lazily built module-wide call graph. All methods are
// single-goroutine: the lint runner drives analyzers sequentially.
type Graph struct {
	Fset *token.FileSet

	// lookup resolves an import path to a loaded source package (nil for
	// export-data packages); sources enumerates every package currently
	// loaded with syntax, for implements-set construction.
	lookup  func(path string) *Source
	sources func() []*Source

	srcOf     map[*types.Package]*Source
	declIndex map[*Source]map[*types.Func]*ast.FuncDecl
	nodes     map[*types.Func]*Node
	litNodes  map[*ast.FuncLit]*Node
	edges     map[*Node][]Edge
	effects   map[*Node][]Effect
	diverges  map[*Node]divState
	impls     map[implKey][]*types.Func
}

// Node is one function (declared or literal) with source.
type Node struct {
	Fn   *types.Func   // nil for literals
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Src  *Source       // the package the body lives in

	// Encl is the declared function a literal is nested in (nil for
	// declared functions); diagnostics use it to name the literal.
	Encl *Node
}

// Body returns the function's body block.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Name renders the node for call chains: the function name for declared
// functions, "func literal in X" for literals.
func (n *Node) Name() string {
	if n.Fn != nil {
		return n.Fn.Name()
	}
	if n.Encl != nil {
		return "func literal in " + n.Encl.Name()
	}
	return "func literal"
}

// Pos returns the declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Edge is one outgoing call: Site is the call (or reference) position,
// Callee the target node. Dynamic marks interface-dispatch edges, whose
// targets are the conservative implements set rather than a proven
// callee.
type Edge struct {
	Site    token.Pos
	Callee  *Node
	Dynamic bool
}

// New creates a graph over the packages lookup/sources expose. Both
// functions see the loader's live state, so packages loaded after New
// (dependencies of later analysis targets) join the graph automatically.
func New(fset *token.FileSet, lookup func(path string) *Source, sources func() []*Source) *Graph {
	return &Graph{
		Fset:      fset,
		lookup:    lookup,
		sources:   sources,
		srcOf:     make(map[*types.Package]*Source),
		declIndex: make(map[*Source]map[*types.Func]*ast.FuncDecl),
		nodes:     make(map[*types.Func]*Node),
		litNodes:  make(map[*ast.FuncLit]*Node),
		edges:     make(map[*Node][]Edge),
		effects:   make(map[*Node][]Effect),
		diverges:  make(map[*Node]divState),
		impls:     make(map[implKey][]*types.Func),
	}
}

// sourceOf resolves the Source a *types.Package was loaded from, or nil
// when the package has no syntax (export data).
func (g *Graph) sourceOf(tp *types.Package) *Source {
	if tp == nil {
		return nil
	}
	if s, ok := g.srcOf[tp]; ok {
		return s
	}
	s := g.lookup(tp.Path())
	if s != nil && s.Types != tp {
		// A stale or shadowed load; treat as sourceless.
		s = nil
	}
	g.srcOf[tp] = s
	return s
}

// decls builds (once per package) the *types.Func → *ast.FuncDecl index.
func (g *Graph) decls(s *Source) map[*types.Func]*ast.FuncDecl {
	if idx, ok := g.declIndex[s]; ok {
		return idx
	}
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range s.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := s.Info.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	g.declIndex[s] = idx
	return idx
}

// NodeOf returns the node for a declared function, or nil when its
// package has no source or the function has no body (extern, interface
// method).
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	src := g.sourceOf(fn.Pkg())
	var n *Node
	if src != nil {
		if fd, ok := g.decls(src)[fn]; ok {
			n = &Node{Fn: fn, Decl: fd, Src: src}
		}
	}
	g.nodes[fn] = n // nil is memoized too
	return n
}

// nodeOfLit returns (creating on first use) the node of a function
// literal nested in encl.
func (g *Graph) nodeOfLit(lit *ast.FuncLit, encl *Node) *Node {
	if n, ok := g.litNodes[lit]; ok {
		return n
	}
	root := encl
	for root != nil && root.Encl != nil {
		root = root.Encl
	}
	n := &Node{Lit: lit, Src: encl.Src, Encl: root}
	g.litNodes[lit] = n
	return n
}

// Calls returns (computing once) the node's outgoing edges: static calls
// and function references resolved through go/types, one edge per nested
// function literal, and conservative fan-out edges for interface-method
// calls. Literal bodies are not traversed here — the literal is its own
// node with its own edges.
func (g *Graph) Calls(n *Node) []Edge {
	if es, ok := g.edges[n]; ok {
		return es
	}
	g.edges[n] = nil // cycle guard while building
	var es []Edge
	info := n.Src.Info

	// Calls whose Fun we have already handled, so the reference pass
	// below does not double-count the callee of an ordinary call.
	funOf := make(map[ast.Node]bool)

	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				es = append(es, Edge{Site: x.Pos(), Callee: g.nodeOfLit(x, n)})
				return false // the literal's body belongs to its own node
			case *ast.CallExpr:
				fun := ast.Unparen(x.Fun)
				funOf[fun] = true
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
						if types.IsInterface(s.Recv()) {
							for _, impl := range g.implementers(s.Recv(), s.Obj().(*types.Func)) {
								if cn := g.NodeOf(impl); cn != nil {
									es = append(es, Edge{Site: x.Pos(), Callee: cn, Dynamic: true})
								}
							}
							return true
						}
					}
				}
				if fn := calleeOf(info, x); fn != nil {
					if cn := g.NodeOf(fn); cn != nil {
						es = append(es, Edge{Site: x.Pos(), Callee: cn})
					}
				}
			case *ast.Ident:
				// A function referenced as a value (assigned, passed,
				// deferred via a variable): assume it may be called.
				if funOf[x] {
					return true
				}
				if fn, ok := info.Uses[x].(*types.Func); ok {
					if cn := g.NodeOf(fn); cn != nil {
						es = append(es, Edge{Site: x.Pos(), Callee: cn})
					}
				}
			case *ast.SelectorExpr:
				if funOf[x] {
					return true
				}
				if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
					// Method value or qualified function reference.
					if cn := g.NodeOf(fn); cn != nil {
						es = append(es, Edge{Site: x.Pos(), Callee: cn})
					}
					funOf[x] = true // don't re-add through the Ident branch
				}
			}
			return true
		})
	}
	walk(n.Body())
	g.edges[n] = es
	return es
}

// FuncLitNode returns the node of a function literal lexically contained
// in encl's body, materializing literal nodes (which are created as a
// side effect of edge construction) down the nest that contains it.
func (g *Graph) FuncLitNode(encl *Node, lit *ast.FuncLit) *Node {
	if n, ok := g.litNodes[lit]; ok {
		return n
	}
	seen := make(map[*Node]bool)
	var dfs func(n *Node)
	dfs = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, e := range g.Calls(n) {
			if e.Callee.Lit != nil && e.Callee.Src == encl.Src {
				dfs(e.Callee)
			}
		}
	}
	dfs(encl)
	if n, ok := g.litNodes[lit]; ok {
		return n
	}
	return g.nodeOfLit(lit, encl)
}

// implKey identifies one interface method for implements-set memoization.
type implKey struct {
	iface  *types.Interface
	method string
}

// implementers returns the concrete methods that a call to iface method m
// may dispatch to, scanning every named type declared in the loaded
// source packages whose method set (value or pointer) implements iface.
func (g *Graph) implementers(recv types.Type, m *types.Func) []*types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := implKey{iface: iface, method: m.Name()}
	if fns, ok := g.impls[key]; ok {
		return fns
	}
	var fns []*types.Func
	for _, src := range g.sources() {
		scope := src.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			var impl types.Type
			switch {
			case types.Implements(named, iface):
				impl = named
			case types.Implements(types.NewPointer(named), iface):
				impl = types.NewPointer(named)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, src.Types, m.Name())
			if fn, ok := obj.(*types.Func); ok {
				fns = append(fns, fn)
			}
		}
	}
	g.impls[key] = fns
	return fns
}

// calleeOf resolves a call to the *types.Func it statically invokes (nil
// for indirect calls through variables, conversions, and builtins).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
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
