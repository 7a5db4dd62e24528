package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CheckRequired verifies that each named entry point declares a
// non-empty // hotpath: contract, returning one diagnostic per symbol
// that lacks one. Symbols name module functions or methods:
//
//	<import-path>.<Func>
//	<import-path>.<Type>.<Method>
//
// e.g. repro/internal/core.Predictor.PredictDetailed. An unresolvable
// symbol is an error (the list itself is stale), not a finding, so a
// rename cannot silently retire the contract check. TestRepoIsClean
// checks the entry points whose benchmarks have allocation tests.
func CheckRequired(loader *Loader, symbols []string) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, sym := range symbols {
		fn, err := resolveSymbol(loader, sym)
		if err != nil {
			return nil, err
		}
		fd := declOf(loader, fn)
		if fd == nil {
			return nil, fmt.Errorf("lint: required entry point %s: no source declaration (external or generated symbol?)", sym)
		}
		mask, exempt := hotpathContract(fd.Doc)
		switch {
		case exempt:
			diags = append(diags, Diagnostic{
				Check: "hotpath", Pos: loader.Fset.Position(fd.Pos()),
				Message: fmt.Sprintf("required entry point %s is marked 'hotpath: exempt'; a benchmarked entry point needs a real contract", sym),
			})
		case mask == 0:
			diags = append(diags, Diagnostic{
				Check: "hotpath", Pos: loader.Fset.Position(fd.Pos()),
				Message: fmt.Sprintf("required entry point %s declares no // hotpath: contract", sym),
			})
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// resolveSymbol parses and resolves one required symbol. The import path
// runs up to the first dot after the last slash; one trailing name is a
// package function, two are a type and its method.
func resolveSymbol(loader *Loader, sym string) (*types.Func, error) {
	tail := sym
	prefix := ""
	if i := strings.LastIndex(sym, "/"); i >= 0 {
		prefix, tail = sym[:i+1], sym[i+1:]
	}
	parts := strings.Split(tail, ".")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("lint: required entry point %q: want <import-path>.<Func> or <import-path>.<Type>.<Method>", sym)
	}
	path := prefix + parts[0]
	pkg, err := loader.Load(path)
	if err != nil {
		return nil, fmt.Errorf("lint: required entry point %s: %w", sym, err)
	}
	scope := pkg.Types.Scope()
	if len(parts) == 2 {
		fn, ok := scope.Lookup(parts[1]).(*types.Func)
		if !ok {
			return nil, fmt.Errorf("lint: required entry point %s: %s is not a function in %s", sym, parts[1], path)
		}
		return fn, nil
	}
	tn, ok := scope.Lookup(parts[1]).(*types.TypeName)
	if !ok {
		return nil, fmt.Errorf("lint: required entry point %s: %s is not a type in %s", sym, parts[1], path)
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, fmt.Errorf("lint: required entry point %s: %s is not a named type", sym, parts[1])
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == parts[2] {
			return m, nil
		}
	}
	return nil, fmt.Errorf("lint: required entry point %s: %s has no method %s", sym, parts[1], parts[2])
}

// declOf finds the FuncDecl of a function in the loader's syntax trees.
func declOf(loader *Loader, fn *types.Func) *ast.FuncDecl {
	pkg := loader.Loaded(fn.Pkg().Path())
	if pkg == nil {
		return nil
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}
