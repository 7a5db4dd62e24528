// Package linttest is the golden-file harness for the internal/lint
// analyzers. A fixture is an ordinary Go package under
// internal/lint/testdata/src/<importpath>/ whose source carries
// expectation comments on the offending lines:
//
//	_ = rand.Intn(10) // want `global math/rand\.Intn`
//
// Run loads the fixture through the same loader and suppression pipeline
// cmd/repolint uses, then requires an exact match between reported
// diagnostics and want comments: every diagnostic must be expected, every
// expectation must fire. The argument of want is a Go-quoted regular
// expression matched against the diagnostic message; several may follow a
// single want.
package linttest

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run loads the fixture package at pkgPath (relative to
// internal/lint/testdata/src) and checks the analyzer's diagnostics
// against the fixture's want comments.
func Run(t *testing.T, a *lint.Analyzer, pkgPath string) {
	t.Helper()
	loader := fixtureLoader(t)
	diags, err := lint.Run(loader, []*lint.Analyzer{a}, []string{pkgPath})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	if _, err := loader.Load(pkgPath); err != nil {
		t.Fatal(err)
	}
	// Interprocedural analyzers report at effect sites in dependency
	// packages, so want comments are honoured in every fixture package the
	// load pulled in — not just the analyzed one.
	fixtureDir := filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "src")
	var files []*ast.File
	for _, p := range loader.AllLoaded() {
		if p.Dir != "" && strings.HasPrefix(p.Dir, fixtureDir+string(filepath.Separator)) {
			files = append(files, p.Files...)
		}
	}
	wants := collectWants(t, loader.Fset, files)

	for _, d := range diags {
		key := posKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q did not fire", key.file, key.line, w.re)
			}
		}
	}
}

// RunRaw runs the analyzers over a fixture package and returns the
// resulting diagnostics for programmatic inspection. Tests that assert on
// the directive machinery itself use this, because a "directive"
// diagnostic lands on the directive comment's own line, where a want
// comment cannot annotate it.
func RunRaw(t *testing.T, analyzers []*lint.Analyzer, pkgPath string) []lint.Diagnostic {
	t.Helper()
	loader := fixtureLoader(t)
	diags, err := lint.Run(loader, analyzers, []string{pkgPath})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	return diags
}

// fixtureLoader builds a loader rooted at the module with
// internal/lint/testdata/src as the fixture search path.
func fixtureLoader(t *testing.T) *lint.Loader {
	t.Helper()
	root := moduleRoot(t)
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.SetFixtureDir(filepath.Join(root, "internal", "lint", "testdata", "src"))
	return loader
}

type posKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// collectWants parses every `// want "re" ...` comment, keyed by the line
// it annotates.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[posKey][]*want {
	t.Helper()
	wants := make(map[posKey][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				for _, pat := range splitQuoted(t, pos, rest) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					key := posKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the sequence of Go-quoted (double-quoted or
// backquoted) strings from a want comment's payload.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quoted string
		switch s[0] {
		case '"':
			end := strings.Index(s[1:], `"`)
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", pos, s)
			}
			quoted = s[:end+2]
		case '`':
			end := strings.Index(s[1:], "`")
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", pos, s)
			}
			quoted = s[:end+2]
		default:
			t.Fatalf("%s: want patterns must be quoted, got: %s", pos, s)
		}
		pat, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: bad want pattern %s: %v", pos, quoted, err)
		}
		out = append(out, pat)
		s = strings.TrimSpace(s[len(quoted):])
	}
	return out
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if fi, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && !fi.IsDir() {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}
