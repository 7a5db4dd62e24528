package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// BoundFlow requires every growable container (map or slice field) that
// lives in a daemon-resident struct to have a statically evident bound.
// The daemon packages (service, histstore, obs, admission, accuracy)
// run for the process lifetime; a per-request or per-category map that
// grows without a cap is a latent production outage — it just takes
// weeks instead of milliseconds.
//
// The analyzer starts from the package's root daemon structs (Server,
// Store, Registry, Tracer, Tracker, Shadow, Reselector, Controller),
// closes over their field types (through pointers, slices, arrays,
// maps, and generic type arguments such as atomic.Pointer[T]), and
// collects every map/slice field of the reachable structs. A field with
// at least one growth site —
//
//   - a direct element store (x.f[k] = v) or append assigned back to
//     the field (x.f = append(x.f, ...)),
//   - or the copy-on-write publish pattern: a local map/slice that
//     grows inside the function and is then assigned (or composite-
//     literal-bound) to the field
//
// — must carry bound evidence somewhere in the declaring package: a
// len(x.f) comparison, a delete(x.f, ...), a truncating reslice
// (x.f = x.f[...]), or a justified annotation on the field declaration:
//
//	// bounded by the snapshot retention cap, enforced in trim()
//
// An annotation without a justification is itself a finding. The
// evidence search is per-field and package-wide — the analyzer proves a
// bound exists, not that every growth path consults it — which keeps it
// quiet on rings and caches whose eviction lives in a sibling method.
var BoundFlow = &Analyzer{
	Name: "boundflow",
	Doc: "maps and slices in daemon-resident structs (service, histstore, obs, " +
		"admission, accuracy) must have a statically evident bound (len check, " +
		"delete, truncating reslice) or a justified // bounded by annotation",
	AppliesTo: isBoundflowPkg,
	Run:       runBoundFlow,
}

// boundflowPackages are the daemon-resident packages, matched by
// import-path segment like the other package-set analyzers.
var boundflowPackages = map[string]bool{
	"service":   true,
	"histstore": true,
	"obs":       true,
	"admission": true,
	"accuracy":  true,
}

func isBoundflowPkg(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if boundflowPackages[seg] {
			return true
		}
	}
	return false
}

// boundflowRoots are the daemon-resident struct names the closure starts
// from. The set is deliberately a name list: the structs that hold
// process-lifetime state are few and stable, and a name list keeps the
// fixture packages honest (a fixture declares `type Server struct` and
// is analyzed exactly like the real tree).
var boundflowRoots = map[string]bool{
	"Server":     true,
	"Store":      true,
	"Registry":   true,
	"Tracer":     true,
	"Tracker":    true,
	"Shadow":     true,
	"Reselector": true,
	"Controller": true,
}

// boundedPrefix introduces a field-bound justification.
const boundedPrefix = "bounded by"

// parseBoundedDirective parses one comment's raw text (marker included)
// as a // bounded by <why> annotation. ok is false when the comment is
// not a bounded annotation; errMsg is non-empty when the justification
// is missing. The function is pure; it is the fuzz surface of the
// annotation grammar.
func parseBoundedDirective(text string) (why, errMsg string, ok bool) {
	body, isLine := strings.CutPrefix(text, "//")
	if !isLine {
		return "", "", false
	}
	trimmed := strings.TrimSpace(body)
	rest, isDirective := strings.CutPrefix(trimmed, boundedPrefix)
	if !isDirective {
		return "", "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false // e.g. "bounded byzantine"
	}
	why = strings.TrimSpace(rest)
	if why == "" {
		return "", "bounded by needs a justification (what enforces the bound?)", true
	}
	return why, "", true
}

func runBoundFlow(pass *Pass) {
	info := pass.Pkg.Info

	// 1. Reachable daemon structs: roots by name, closed over field types.
	reach := make(map[*types.Named]bool)
	var close func(t types.Type)
	close = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			// Generic containers (atomic.Pointer[T]) reach through their
			// type arguments even when the named type itself is external.
			if ta := t.TypeArgs(); ta != nil {
				for i := 0; i < ta.Len(); i++ {
					close(ta.At(i))
				}
			}
			if t.Obj().Pkg() != pass.Pkg.Types {
				return // fields declared elsewhere are that package's passes to check
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				if reach[t] {
					return
				}
				reach[t] = true
				for i := 0; i < st.NumFields(); i++ {
					close(st.Field(i).Type())
				}
			}
		case *types.Pointer:
			close(t.Elem())
		case *types.Slice:
			close(t.Elem())
		case *types.Array:
			close(t.Elem())
		case *types.Map:
			close(t.Key())
			close(t.Elem())
		case *types.Chan:
			close(t.Elem())
		}
	}
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !boundflowRoots[name] {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			close(named)
		}
	}
	// External roots: a named generic instantiated elsewhere cannot occur
	// for roots (they are declared here), so nothing more to seed.

	// 2. The growable fields of the reachable structs.
	type fieldInfo struct {
		obj    *types.Var
		kind   string // "map" or "slice"
		growth []token.Pos
	}
	fields := make(map[*types.Var]*fieldInfo)
	for named := range reach {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			switch f.Type().Underlying().(type) {
			case *types.Map:
				fields[f] = &fieldInfo{obj: f, kind: "map"}
			case *types.Slice:
				fields[f] = &fieldInfo{obj: f, kind: "slice"}
			}
		}
	}
	if len(fields) == 0 {
		return
	}

	// selField resolves an expression to one of the tracked field objects
	// when it is a selector (or deeper chain ending in one) onto a field.
	selField := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return nil
		}
		if _, tracked := fields[v]; !tracked {
			return nil
		}
		return v
	}

	// 3. Scan every function for growth sites and bound evidence.
	evidence := make(map[*types.Var]bool)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Locals that grow inside this function, for the COW publish
			// pattern: local grows, then is stored into the field.
			grownLocals := make(map[types.Object][]token.Pos)
			localRoot := func(e ast.Expr) types.Object {
				id, ok := ast.Unparen(e).(*ast.Ident)
				if !ok {
					return nil
				}
				obj := info.Uses[id]
				if obj == nil {
					obj = info.Defs[id]
				}
				if v, ok := obj.(*types.Var); ok && !v.IsField() {
					return v
				}
				return nil
			}
			// First pass: find growing locals and direct field growth.
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				as, ok := x.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, lhs := range as.Lhs {
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						// m[k] = v: growth of a map (field or local).
						if fv := selField(ix.X); fv != nil {
							if _, isMap := fv.Type().Underlying().(*types.Map); isMap {
								fields[fv].growth = append(fields[fv].growth, as.Pos())
							}
						} else if lo := localRoot(ix.X); lo != nil {
							if _, isMap := lo.Type().Underlying().(*types.Map); isMap {
								grownLocals[lo] = append(grownLocals[lo], as.Pos())
							}
						}
						continue
					}
					if i >= len(as.Rhs) && len(as.Rhs) != 1 {
						continue
					}
					rhs := as.Rhs[min(i, len(as.Rhs)-1)]
					if isAppendCall(info, rhs) {
						if fv := selField(lhs); fv != nil {
							fields[fv].growth = append(fields[fv].growth, as.Pos())
						} else if lo := localRoot(lhs); lo != nil {
							grownLocals[lo] = append(grownLocals[lo], as.Pos())
						}
					}
				}
				return true
			})
			// Second pass: evidence, and COW publishes of grown locals.
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.BinaryExpr:
					// A comparison with len(x.f) on either side.
					if isComparison(x.Op) {
						for _, side := range []ast.Expr{x.X, x.Y} {
							if fv := lenOfField(info, side, selField); fv != nil {
								evidence[fv] = true
							}
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" {
						if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(x.Args) > 0 {
							if fv := selField(x.Args[0]); fv != nil {
								evidence[fv] = true
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						fv := selField(lhs)
						if fv == nil || i >= len(x.Rhs) {
							continue
						}
						rhs := ast.Unparen(x.Rhs[i])
						// Truncating reslice of the same field.
						if sl, ok := rhs.(*ast.SliceExpr); ok {
							if rv := selField(sl.X); rv == fv {
								evidence[fv] = true
							}
						}
						// COW publish: x.f = local where local grew here.
						if lo := localRoot(rhs); lo != nil && len(grownLocals[lo]) > 0 {
							fields[fv].growth = append(fields[fv].growth, grownLocals[lo]...)
						}
					}
				case *ast.CompositeLit:
					// COW publish through a literal: T{f: local}.
					for _, el := range x.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						v, ok := info.Uses[key].(*types.Var)
						if !ok || !v.IsField() {
							continue
						}
						if _, tracked := fields[v]; !tracked {
							continue
						}
						if lo := localRoot(kv.Value); lo != nil && len(grownLocals[lo]) > 0 {
							fields[v].growth = append(fields[v].growth, grownLocals[lo]...)
						}
					}
				}
				return true
			})
		}
	}

	// 4. Annotations on field declarations (and hygiene findings).
	annotated := make(map[*types.Var]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			st, ok := x.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				var groups []*ast.CommentGroup
				if fl.Doc != nil {
					groups = append(groups, fl.Doc)
				}
				if fl.Comment != nil {
					groups = append(groups, fl.Comment)
				}
				justified := false
				for _, cg := range groups {
					for _, c := range cg.List {
						_, errMsg, ok := parseBoundedDirective(c.Text)
						if !ok {
							continue
						}
						if errMsg != "" {
							pass.Reportf(c.Pos(), "%s", errMsg)
							continue
						}
						justified = true
					}
				}
				if !justified {
					continue
				}
				for _, name := range fl.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						annotated[v] = true
					}
				}
			}
			return true
		})
	}

	// 5. Report unbounded growth, one finding per field at its declaration.
	var flagged []*fieldInfo
	for _, fi := range fields {
		if len(fi.growth) == 0 || evidence[fi.obj] || annotated[fi.obj] {
			continue
		}
		flagged = append(flagged, fi)
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].obj.Pos() < flagged[j].obj.Pos() })
	for _, fi := range flagged {
		sort.Slice(fi.growth, func(i, j int) bool { return fi.growth[i] < fi.growth[j] })
		sites := make([]string, 0, len(fi.growth))
		seen := make(map[string]bool)
		for _, p := range fi.growth {
			sp := shortPos(pass, p)
			if !seen[sp] {
				seen[sp] = true
				sites = append(sites, sp)
			}
		}
		pass.Reportf(fi.obj.Pos(),
			"%s field %s grows at %s without a statically evident bound (len check, delete, truncating reslice); add eviction or justify with // bounded by <why>",
			fi.kind, fi.obj.Name(), strings.Join(sites, ", "))
	}
}

// shortPos renders a position as base-filename:line.
func shortPos(pass *Pass, p token.Pos) string {
	pos := pass.Fset.Position(p)
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}

// isAppendCall reports whether e is a call to the builtin append
// (possibly wrapped in parens).
func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isComparison reports whether op is a comparison operator.
func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// lenOfField returns the tracked field when e is len(<selector-to-field>).
func lenOfField(info *types.Info, e ast.Expr, selField func(ast.Expr) *types.Var) *types.Var {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "len" {
		return nil
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	return selField(call.Args[0])
}
