package lint

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/callgraph"
)

func TestParseHotpathDirective(t *testing.T) {
	tests := []struct {
		text   string
		mask   callgraph.EffectKind
		exempt bool
		bad    bool // errMsg expected non-empty
		ok     bool
	}{
		{"// hotpath: no-lock no-alloc no-clock", callgraph.Lock | callgraph.Chan | callgraph.Alloc | callgraph.Clock, false, false, true},
		{"// hotpath: no-alloc", callgraph.Alloc, false, false, true},
		{"// hotpath: no-go", callgraph.Go, false, false, true},
		{"//hotpath: no-clock", callgraph.Clock, false, false, true},
		{"// hotpath: exempt nil-guarded tracing plumbing", 0, true, false, true},
		{"// hotpath: exempt", 0, true, true, true},
		{"// hotpath:", 0, false, true, true},
		{"// hotpath: no-latency", 0, false, true, true},
		{"// hotpath: no-lock no-latency", 0, false, true, true},
		{"/* hotpath: no-lock */", 0, false, false, false},
		{"// hotpaths: no-lock", 0, false, false, false},
		{"// ordinary comment", 0, false, false, false},
	}
	for _, tt := range tests {
		mask, exempt, errMsg, ok := parseHotpathDirective(tt.text)
		if ok != tt.ok || exempt != tt.exempt || (errMsg != "") != tt.bad || (!tt.bad && mask != tt.mask) {
			t.Errorf("parseHotpathDirective(%q) = %v, %v, %q, %v; want mask %v, exempt %v, bad %v, ok %v",
				tt.text, mask, exempt, errMsg, ok, tt.mask, tt.exempt, tt.bad, tt.ok)
		}
	}
}

// FuzzParseHotpathDirective hammers the annotation parser — like the
// //lint:allow parser, it is the piece of the hotpath machinery that
// faces arbitrary comment text — checking structural invariants.
func FuzzParseHotpathDirective(f *testing.F) {
	for _, seed := range []string{
		"// hotpath: no-lock no-alloc no-clock",
		"// hotpath: exempt nil-guarded plumbing",
		"// hotpath: exempt",
		"// hotpath:",
		"// hotpath: no-latency",
		"//hotpath: no-go",
		"/* hotpath: no-lock */",
		"// hotpaths: no-lock",
		"//",
		"",
		"// hotpath: no-lock\tno-alloc",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		mask, exempt, errMsg, ok := parseHotpathDirective(text)
		if !ok {
			if mask != 0 || exempt || errMsg != "" {
				t.Errorf("parseHotpathDirective(%q): not an annotation but returned %v, %v, %q", text, mask, exempt, errMsg)
			}
			return
		}
		if exempt && mask != 0 {
			t.Errorf("parseHotpathDirective(%q): exempt with non-zero mask %v", text, mask)
		}
		if errMsg != "" && mask != 0 {
			t.Errorf("parseHotpathDirective(%q): malformed but non-zero mask %v", text, mask)
		}
		if ok && !exempt && errMsg == "" && mask == 0 {
			t.Errorf("parseHotpathDirective(%q): well-formed contract with empty mask", text)
		}
		if mask&^callgraph.AllEffects != 0 {
			t.Errorf("parseHotpathDirective(%q): mask %v has unknown bits", text, mask)
		}
	})
}

// TestHotPathMalformedAnnotations asserts the diagnostics for the bad
// fixture programmatically: they land on the annotation comment's own
// line, where a want comment cannot sit.
func TestHotPathMalformedAnnotations(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader.SetFixtureDir(filepath.Join("testdata", "src"))
	diags, err := Run(loader, []*Analyzer{HotPath}, []string{"hotpath/bad"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{
		"hotpath: annotation needs tokens",
		"hotpath: unknown token \"no-latency\"",
		"hotpath: exempt needs a justification",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, got[i], w)
		}
	}
}

// TestCheckRequired pins CheckRequired's contract over the hotpath
// fixture: a contracted entry point passes, an uncontracted or exempt one
// is a finding, and a symbol the type checker cannot resolve is an error,
// so a rename fails loudly instead of retiring the check.
func TestCheckRequired(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader.SetFixtureDir(filepath.Join("testdata", "src"))
	for _, c := range []struct {
		sym, finding string
		stale        bool
	}{
		{sym: "hotpath/a.Predict"},
		{sym: "hotpath/a.helper", finding: "declares no // hotpath: contract"},
		{sym: "hotpath/a.instrument", finding: "is marked 'hotpath: exempt'"},
		{sym: "hotpath/a.Renamed", stale: true},
	} {
		diags, err := CheckRequired(loader, []string{c.sym})
		if c.stale {
			if err == nil {
				t.Errorf("%s: stale symbol gave %v and no error", c.sym, diags)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.sym, err)
		}
		switch {
		case c.finding == "" && len(diags) != 0:
			t.Errorf("%s: contracted entry point gave findings %v", c.sym, diags)
		case c.finding != "" && (len(diags) != 1 || !strings.Contains(diags[0].Message, c.finding)):
			t.Errorf("%s: findings %v, want one containing %q", c.sym, diags, c.finding)
		}
	}
}
