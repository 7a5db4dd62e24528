package lint

import (
	"strings"
	"testing"
)

func TestParseBoundedDirective(t *testing.T) {
	tests := []struct {
		text   string
		why    string
		errMsg bool
		ok     bool
	}{
		{"// bounded by the retention cap enforced in trim", "the retention cap enforced in trim", false, true},
		{"//bounded by maxCache entries", "maxCache entries", false, true},
		{"// bounded by\tthe tab-separated cap", "the tab-separated cap", false, true},
		{"// bounded by", "", true, true},
		{"// bounded by   ", "", true, true},
		{"// bounded byzantine generals", "", false, false},
		{"/* bounded by a block comment */", "", false, false},
		{"// the map is bounded by the cap", "", false, false}, // prefix must open the comment
		{"// unbounded by design", "", false, false},
	}
	for _, tt := range tests {
		why, errMsg, ok := parseBoundedDirective(tt.text)
		if ok != tt.ok || (errMsg != "") != tt.errMsg || why != tt.why {
			t.Errorf("parseBoundedDirective(%q) = %q, %q, %v; want why %q, err %v, ok %v",
				tt.text, why, errMsg, ok, tt.why, tt.errMsg, tt.ok)
		}
	}
}

// FuzzParseBoundedDirective drives the field-bound annotation parser
// with hostile comment bodies: a recognised directive either carries a
// non-empty justification or an error, and nothing sharing a prefix
// ("bounded byzantine") may parse as one.
func FuzzParseBoundedDirective(f *testing.F) {
	for _, seed := range []string{
		"// bounded by the retention cap",
		"//bounded by maxCache",
		"// bounded by",
		"// bounded byzantine generals",
		"/* bounded by x */",
		"// bounded by\twhy",
		"//   bounded by   spaced   why",
		"//",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		why, errMsg, ok := parseBoundedDirective(text)
		if !ok {
			if why != "" || errMsg != "" {
				t.Errorf("parseBoundedDirective(%q): not a directive but returned %q, %q", text, why, errMsg)
			}
			return
		}
		body, isLine := strings.CutPrefix(text, "//")
		if !isLine {
			t.Fatalf("parseBoundedDirective(%q): accepted a non-line comment", text)
		}
		rest := strings.TrimSpace(body)
		if !strings.HasPrefix(rest, boundedPrefix) {
			t.Fatalf("parseBoundedDirective(%q): accepted text without the prefix", text)
		}
		if tail := rest[len(boundedPrefix):]; tail != "" && tail[0] != ' ' && tail[0] != '\t' {
			t.Errorf("parseBoundedDirective(%q): accepted a fused prefix word", text)
		}
		if errMsg == "" && why == "" {
			t.Errorf("parseBoundedDirective(%q): accepted an empty justification without error", text)
		}
		if errMsg != "" && why != "" {
			t.Errorf("parseBoundedDirective(%q): returned both %q and error %q", text, why, errMsg)
		}
	})
}
