package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// One golden-file fixture per analyzer: each fixture seeds violations and
// marks the expected diagnostics with // want comments, so these tests
// fail both when a check misses a seeded violation and when it
// over-reports clean code.

func TestDetRandFixture(t *testing.T)   { linttest.Run(t, lint.DetRand, "detrand/sim") }
func TestWallClockFixture(t *testing.T) { linttest.Run(t, lint.WallClock, "wallclock/sim") }
func TestErrDropFixture(t *testing.T)   { linttest.Run(t, lint.ErrDrop, "errdrop/a") }
func TestLockFlowFixture(t *testing.T)  { linttest.Run(t, lint.LockFlow, "lockflow/a") }
func TestCtxFlowFixture(t *testing.T)   { linttest.Run(t, lint.CtxFlow, "ctxflow/a") }

func TestAtomicFieldFixture(t *testing.T) { linttest.Run(t, lint.AtomicField, "atomicfield/a") }
func TestHotPathFixture(t *testing.T)     { linttest.Run(t, lint.HotPath, "hotpath/a") }
func TestGoLeakFixture(t *testing.T)      { linttest.Run(t, lint.GoLeak, "goleak/service") }
func TestBoundFlowFixture(t *testing.T)   { linttest.Run(t, lint.BoundFlow, "boundflow/service") }

// TestHotPathConversionFixture pins which []byte → string conversions
// the hotpath analyzer treats as allocations: borrowed map reads and
// equality operands are clean, every copying conversion is reported.
func TestHotPathConversionFixture(t *testing.T) { linttest.Run(t, lint.HotPath, "hotpath/conv") }

// TestBoundFlowHygiene: a bounded annotation without a justification is
// a finding on its own line, and it does not justify the field — the
// growth finding fires too. Prose that merely shares the prefix
// ("bounded byzantine") is not a directive.
func TestBoundFlowHygiene(t *testing.T) {
	diags := linttest.RunRaw(t, []*lint.Analyzer{lint.BoundFlow}, "boundflow/hygiene/service")
	var hygiene, growth int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "bounded by needs a justification"):
			hygiene++
		case strings.Contains(d.Message, "without a statically evident bound"):
			growth++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if hygiene != 1 || growth != 2 {
		t.Errorf("got %d hygiene + %d growth findings, want 1 + 2:\n%v", hygiene, growth, diags)
	}
}

// TestDirectives drives the suppression machinery through the directive
// fixture: justified directives (trailing and standalone) silence their
// line, while unjustified, unknown-check, and bare directives surface as
// "directive" diagnostics — a suppression that cannot say why it exists is
// itself a finding.
func TestDirectives(t *testing.T) {
	diags := linttest.RunRaw(t, []*lint.Analyzer{lint.ErrDrop}, "directive/a")
	var got []string
	for _, d := range diags {
		got = append(got, d.Check+"|"+d.Message)
	}
	wantSubstrings := []string{
		"directive|//lint:allow errdrop needs a justification",
		"errdrop|call discards its error result", // unknownCheck's os.Remove("d") stays reported
		"directive|//lint:allow names unknown check \"nosuchcheck\"",
		"directive|//lint:allow needs a check name and a justification",
		"errdrop|call discards its error result", // bare()'s os.Remove("e") stays reported
	}
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(wantSubstrings), strings.Join(got, "\n"))
	}
	for i, w := range wantSubstrings {
		parts := strings.SplitN(w, "|", 2)
		if !strings.HasPrefix(got[i], parts[0]+"|") || !strings.Contains(got[i], parts[1]) {
			t.Errorf("diagnostic %d = %q, want check %q containing %q", i, got[i], parts[0], parts[1])
		}
	}
	// The justified trailing and standalone directives must have silenced
	// os.Remove("a") and os.Remove("b"): no errdrop diagnostic may point at
	// their lines (9 and 15).
	for _, d := range diags {
		if d.Check == "errdrop" && (d.Pos.Line == 9 || d.Pos.Line == 15) {
			t.Errorf("justified directive failed to suppress: %s", d)
		}
	}
}

// TestByName covers the check-selection flag parsing.
func TestByName(t *testing.T) {
	all, err := lint.ByName("all")
	if err != nil || len(all) != len(lint.All()) {
		t.Fatalf("ByName(all) = %d analyzers, err %v", len(all), err)
	}
	two, err := lint.ByName("detrand, wallclock")
	if err != nil || len(two) != 2 || two[0].Name != "detrand" || two[1].Name != "wallclock" {
		t.Fatalf("ByName(detrand, wallclock) = %v, err %v", two, err)
	}
	if _, err := lint.ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should fail")
	}
}
