package core

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// key renders a template's category key as a string.
func key(tpl Template, idx int, j *workload.Job) string {
	return string(tpl.AppendKey(nil, idx, j))
}

// TestTemplateKeyFormat pins the rendered key bytes: durable stores hold
// categories under these keys, so the format must never drift.
func TestTemplateKeyFormat(t *testing.T) {
	j := &workload.Job{Queue: "q1", User: "alice", Executable: "a.out", Arguments: "-v", Nodes: 17}
	cases := []struct {
		tpl  Template
		idx  int
		want string
	}{
		{Template{}, 0, "0"},
		{Template{Chars: workload.MaskOf(workload.CharUser)}, 7, "7|alice"},
		{Template{Chars: workload.MaskOf(workload.CharExec, workload.CharUser, workload.CharQueue)}, 12, "12|q1|alice|a.out"},
		{Template{Chars: workload.MaskOf(workload.CharUser, workload.CharArgs), UseNodes: true, NodeRange: 8}, 3, "3|alice|-v|n2"},
		{Template{UseNodes: true}, 1, "1|n16"},
	}
	for _, c := range cases {
		if got := key(c.tpl, c.idx, j); got != c.want {
			t.Errorf("%v key = %q, want %q", c.tpl, got, c.want)
		}
	}
	// Appending extends the caller's buffer in place when it has room.
	buf := make([]byte, 0, keyBufSize)
	user := Template{Chars: workload.MaskOf(workload.CharUser)}
	if got := user.AppendKey(buf, 4, j); &got[0] != &buf[:1][0] || string(got) != "4|alice" {
		t.Errorf("AppendKey did not render into the supplied buffer: %q", got)
	}
}

func TestTemplateKeyPartitions(t *testing.T) {
	tpl := Template{Chars: workload.MaskOf(workload.CharUser, workload.CharExec)}
	a := &workload.Job{User: "alice", Executable: "a.out", Nodes: 4}
	b := &workload.Job{User: "alice", Executable: "a.out", Nodes: 64}
	c := &workload.Job{User: "bob", Executable: "a.out", Nodes: 4}
	if key(tpl, 0, a) != key(tpl, 0, b) {
		t.Error("same user+exec should share a category when nodes unused")
	}
	if key(tpl, 0, a) == key(tpl, 0, c) {
		t.Error("different users must not share a category")
	}
	if key(tpl, 0, a) == key(tpl, 1, a) {
		t.Error("same values under different template indices must stay distinct")
	}
}

func TestTemplateNodeBuckets(t *testing.T) {
	// Node range 4 → buckets 1-4, 5-8, 9-12, ... (paper's example:
	// (u, n=4) generates (wsmith, 1-4 nodes) and (wsmith, 5-8 nodes)).
	tpl := Template{Chars: workload.MaskOf(workload.CharUser), UseNodes: true, NodeRange: 4}
	k := func(n int) string {
		return key(tpl, 0, &workload.Job{User: "wsmith", Nodes: n})
	}
	if k(1) != k(4) {
		t.Error("nodes 1 and 4 should share a bucket")
	}
	if k(4) == k(5) {
		t.Error("nodes 4 and 5 should be in different buckets")
	}
	if k(5) != k(8) {
		t.Error("nodes 5 and 8 should share a bucket")
	}
}

func TestTemplateKeyAmbiguity(t *testing.T) {
	// Values are joined with a separator so ("ab","c") ≠ ("a","bc").
	tpl := Template{Chars: workload.MaskOf(workload.CharUser, workload.CharExec)}
	a := &workload.Job{User: "ab", Executable: "c"}
	b := &workload.Job{User: "a", Executable: "bc"}
	if key(tpl, 0, a) == key(tpl, 0, b) {
		t.Error("key is ambiguous across characteristic boundaries")
	}
}

func TestTemplateApplicable(t *testing.T) {
	chars := workload.MaskOf(workload.CharUser, workload.CharQueue)
	cases := []struct {
		tpl      Template
		hasMaxRT bool
		want     bool
	}{
		{Template{Chars: workload.MaskOf(workload.CharUser)}, false, true},
		{Template{Chars: workload.MaskOf(workload.CharExec)}, false, false},
		{Template{Relative: true}, false, false},
		{Template{Relative: true}, true, true},
		{Template{}, false, true}, // the () template is always applicable
	}
	for i, c := range cases {
		if got := c.tpl.Applicable(chars, c.hasMaxRT); got != c.want {
			t.Errorf("case %d: Applicable = %v, want %v", i, got, c.want)
		}
	}
}

func TestTemplateString(t *testing.T) {
	tpl := Template{
		Chars:      workload.MaskOf(workload.CharUser, workload.CharExec),
		UseNodes:   true,
		NodeRange:  4,
		MaxHistory: 1024,
		Relative:   true,
		UseAge:     true,
		Pred:       PredMean,
	}
	got := tpl.String()
	for _, part := range []string{"u", "e", "n=4", "h=1024", "rel", "age", "mean"} {
		if !strings.Contains(got, part) {
			t.Errorf("String() = %q, missing %q", got, part)
		}
	}
	if s := (Template{Pred: PredLog}).String(); s != "(logr)" {
		t.Errorf("bare template String() = %q", s)
	}
}

func TestPredTypeString(t *testing.T) {
	want := map[PredType]string{PredMean: "mean", PredLinear: "lr", PredInverse: "invr", PredLog: "logr"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("PredType(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestDefaultTemplatesRespectWorkload(t *testing.T) {
	for _, name := range workload.StudyNames {
		cfg, err := workload.StudyConfig(name, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		ts := DefaultTemplates(cfg.Chars, cfg.HasMaxRT)
		if len(ts) == 0 {
			t.Fatalf("%s: no default templates", name)
		}
		for _, tpl := range ts {
			if !tpl.Applicable(cfg.Chars, cfg.HasMaxRT) {
				t.Errorf("%s: inapplicable default template %s", name, tpl)
			}
		}
	}
}

func TestMinPoints(t *testing.T) {
	if (Template{Pred: PredMean}).minPoints() != 2 {
		t.Error("mean should need 2 points")
	}
	for _, p := range []PredType{PredLinear, PredInverse, PredLog} {
		if (Template{Pred: p}).minPoints() != 3 {
			t.Errorf("%v should need 3 points", p)
		}
	}
}
