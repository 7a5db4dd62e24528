package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

// requiredContracts are the hot-path entry points whose benchmarks have
// allocation tests: each must declare a // hotpath: contract, so the
// hotpath analyzer proves statically what those tests measure. A renamed
// or deleted entry makes TestRepoIsClean fail with an error rather than
// silently retire the contract.
var requiredContracts = []string{
	"repro/internal/core.Predictor.Predict",
	"repro/internal/core.Predictor.PredictDetailed",
	"repro/internal/core.Predictor.PredictDetailedBatchCtx",
	"repro/internal/histstore.Store.Get",
	"repro/internal/admission.Controller.Decide",
	"repro/internal/obs/accuracy.stream.scoreSample",
}

// TestRepoIsClean runs every analyzer over the real module tree and
// requires zero diagnostics, pinning the invariant that `repolint ./...`
// stays clean: any new wall-clock read or global rand draw in a
// deterministic package, dropped error, lock or context misuse, unbounded
// daemon state, or a required entry point without a // hotpath: contract
// fails the ordinary test suite, not just the lint CI step. It is the
// suite's only whole-tree run.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root := selfModuleRoot(t)
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(loader, lint.All(), paths)
	if err != nil {
		t.Fatal(err)
	}
	required, err := lint.CheckRequired(loader, requiredContracts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(diags, required...) {
		t.Errorf("repolint finding on the real tree: %s", d)
	}
}

func selfModuleRoot(t *testing.T) string {
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
