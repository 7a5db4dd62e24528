package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	Path  string // import path ("repro/internal/sim")
	Name  string // package name ("sim")
	Dir   string // directory the files were read from
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages using only the standard library:
// module-internal imports are resolved from the module directory, fixture
// imports (for the golden-file test harness) from a GOPATH-style src root,
// and everything else through go/importer's default (compiled export data;
// on modern toolchains the importer shells out to `go list -export` for
// GOROOT packages, so the standard library needs no pre-compilation).
//
// Test files (*_test.go) are never loaded: the analyzers enforce invariants
// on production code, and tests legitimately use wall clocks and ad-hoc
// comparisons.
type Loader struct {
	Fset *token.FileSet

	modulePath string
	moduleDir  string
	fixtureDir string // "" disables fixture resolution

	pkgs    map[string]*Package
	errs    map[string]error
	loading map[string]bool // in-progress loads, for import-cycle detection
	std     types.Importer
}

// NewLoader creates a loader rooted at the module directory, reading the
// module path from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", moduleDir)
	}
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:       token.NewFileSet(),
		modulePath: modPath,
		moduleDir:  abs,
		pkgs:       make(map[string]*Package),
		errs:       make(map[string]error),
		loading:    make(map[string]bool),
		std:        importer.Default(),
	}, nil
}

// SetFixtureDir makes the loader resolve otherwise-unknown import paths
// against a GOPATH-style source root (dir/<importpath>/*.go), the layout
// the linttest harness uses for testdata fixture packages.
func (l *Loader) SetFixtureDir(dir string) { l.fixtureDir = dir }

// ModulePath returns the module's import-path prefix.
func (l *Loader) ModulePath() string { return l.modulePath }

// Loaded returns the already-loaded package for path if it was loaded
// with syntax trees (module-internal or fixture packages), nil otherwise.
// It never triggers a new load.
func (l *Loader) Loaded(path string) *Package {
	if p, ok := l.pkgs[path]; ok && len(p.Files) > 0 {
		return p
	}
	return nil
}

// AllLoaded returns every package loaded with syntax so far, sorted by
// import path for determinism. The runner uses it to collect suppression
// directives module-wide (interprocedural analyzers report at effect
// sites in packages other than the one under analysis) and the call
// graph uses it to enumerate candidate interface implementations.
func (l *Loader) AllLoaded() []*Package {
	var out []*Package
	for _, p := range l.pkgs {
		if len(p.Files) > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Import implements types.Importer so the type-checker can resolve the
// imports of whatever package is being loaded.
func (l *Loader) Import(path string) (*types.Package, error) {
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// Load parses and type-checks the package with the given import path
// (memoized). Module-internal and fixture packages come back with syntax
// trees; export-data packages have only type information.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if err, ok := l.errs[path]; ok {
		return nil, err
	}
	// A load re-entered through the type-checker's import resolution means
	// the package (transitively) imports itself. Without this guard the
	// mutual recursion between Load and conf.Check never terminates.
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle involving %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	p, err := l.load(path)
	if err != nil {
		l.errs[path] = err
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *Loader) load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{Path: path, Name: "unsafe", Types: types.Unsafe}, nil
	}
	if dir, ok := l.moduleResolve(path); ok {
		return l.loadDir(path, dir)
	}
	if l.fixtureDir != "" {
		dir := filepath.Join(l.fixtureDir, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return l.loadDir(path, dir)
		}
	}
	tp, err := l.std.Import(path)
	if err != nil {
		return nil, fmt.Errorf("lint: importing %s: %w", path, err)
	}
	return &Package{Path: path, Name: tp.Name(), Types: tp}, nil
}

// moduleResolve maps a module-internal import path to its directory.
func (l *Loader) moduleResolve(path string) (string, bool) {
	if path == l.modulePath {
		return l.moduleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// loadDir parses every non-test .go file in dir and type-checks the result
// as the package with the given import path.
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tp, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Name:  tp.Name(),
		Dir:   dir,
		Files: files,
		Types: tp,
		Info:  info,
	}, nil
}

// goFileNames lists the non-test Go files of a directory that the current
// build context would compile, sorted. Build-constraint filtering matters:
// a file excluded by //go:build (or a GOOS/GOARCH suffix) is invisible to
// `go build`, and analyzing it anyway would fail the type-check against
// symbols the visible files don't share.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: reading build constraints of %s: %w", filepath.Join(dir, name), err)
		}
		if !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// ExpandPatterns resolves command-line package patterns into import paths.
// Supported forms: "./..." and "dir/..." (recursive), "./dir" and "dir"
// (single directory, relative to the module root), and fully qualified
// module import paths. testdata, vendor, hidden, and underscore-prefixed
// directories are never walked into.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var paths []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := l.walkModule(l.moduleDir)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(l.dirImportPath(d))
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			root = strings.TrimPrefix(root, "./")
			if rest, ok := strings.CutPrefix(root, l.modulePath); ok {
				root = strings.TrimPrefix(rest, "/")
			}
			dirs, err := l.walkModule(filepath.Join(l.moduleDir, filepath.FromSlash(root)))
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(l.dirImportPath(d))
			}
		default:
			p := strings.TrimPrefix(pat, "./")
			if p == "." || p == "" {
				add(l.modulePath)
				continue
			}
			if strings.HasPrefix(p, l.modulePath) {
				add(p)
				continue
			}
			add(l.modulePath + "/" + filepath.ToSlash(p))
		}
	}
	return paths, nil
}

// walkModule collects every directory under root that contains non-test Go
// files.
func (l *Loader) walkModule(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// dirImportPath maps a directory under the module root to its import path.
func (l *Loader) dirImportPath(dir string) string {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}
