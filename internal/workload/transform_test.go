package workload

import (
	"strings"
	"testing"
)

func transformFixture() *Workload {
	return &Workload{
		Name: "fix", MachineNodes: 16,
		Jobs: []*Job{
			{ID: 1, User: "a", Queue: "q1", SubmitTime: 0, RunTime: 100, Nodes: 1, MaxRunTime: 200},
			{ID: 2, User: "b", Queue: "q2", SubmitTime: 100, RunTime: 100, Nodes: 2, MaxRunTime: 200},
			{ID: 3, User: "a", Queue: "q1", SubmitTime: 200, RunTime: 100, Nodes: 4, MaxRunTime: 200},
			{ID: 4, User: "c", Queue: "q3", SubmitTime: 300, RunTime: 100, Nodes: 8, MaxRunTime: 200},
		},
		HasMaxRT: true,
	}
}

func TestWindow(t *testing.T) {
	w := transformFixture()
	win := w.Window(100, 300)
	if len(win.Jobs) != 2 {
		t.Fatalf("window has %d jobs", len(win.Jobs))
	}
	if win.Jobs[0].ID != 2 || win.Jobs[1].ID != 3 {
		t.Fatalf("window jobs = %d, %d", win.Jobs[0].ID, win.Jobs[1].ID)
	}
	// Rebased.
	if win.Jobs[0].SubmitTime != 0 || win.Jobs[1].SubmitTime != 100 {
		t.Fatalf("window not rebased: %d, %d", win.Jobs[0].SubmitTime, win.Jobs[1].SubmitTime)
	}
	// Original untouched.
	if w.Jobs[1].SubmitTime != 100 {
		t.Fatal("window mutated the original")
	}
	if !strings.Contains(win.Name, "fix[") {
		t.Errorf("window name = %q", win.Name)
	}
	if err := win.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowEmpty(t *testing.T) {
	w := transformFixture()
	win := w.Window(1000, 2000)
	if len(win.Jobs) != 0 {
		t.Fatal("window should be empty")
	}
}

func TestHead(t *testing.T) {
	w := transformFixture()
	h := w.Head(2)
	if len(h.Jobs) != 2 || h.Jobs[1].ID != 2 {
		t.Fatalf("head = %v", len(h.Jobs))
	}
	if len(w.Head(100).Jobs) != 4 {
		t.Fatal("oversized head should return everything")
	}
	if len(w.Head(-1).Jobs) != 0 {
		t.Fatal("negative head should be empty")
	}
}

func TestInjectRuntimeStep(t *testing.T) {
	w := transformFixture()
	s := w.InjectRuntimeStep(2, 0.95)
	// Pre-step jobs untouched; post-step jobs run at 95% of their limit.
	if s.Jobs[0].RunTime != 100 || s.Jobs[1].RunTime != 100 {
		t.Fatalf("pre-step jobs changed: %d, %d", s.Jobs[0].RunTime, s.Jobs[1].RunTime)
	}
	if s.Jobs[2].RunTime != 190 || s.Jobs[3].RunTime != 190 {
		t.Fatalf("post-step run times = %d, %d, want 190", s.Jobs[2].RunTime, s.Jobs[3].RunTime)
	}
	if w.Jobs[2].RunTime != 100 {
		t.Fatal("step mutated the original")
	}
	if !strings.Contains(s.Name, "step@2") {
		t.Fatalf("name = %q", s.Name)
	}
	// Fill above 1 clamps to the limit; jobs without a limit are skipped.
	w.Jobs[3].MaxRunTime = 0
	c := w.InjectRuntimeStep(2, 2)
	if c.Jobs[2].RunTime != 200 {
		t.Fatalf("overfilled run time = %d, want clamp to 200", c.Jobs[2].RunTime)
	}
	if c.Jobs[3].RunTime != 100 {
		t.Fatalf("limitless job changed: %d", c.Jobs[3].RunTime)
	}
	// Out-of-range step index or nonpositive fill is a no-op copy.
	if n := w.InjectRuntimeStep(99, 0.95); n.Jobs[2].RunTime != 100 {
		t.Fatal("out-of-range step should not change run times")
	}
	if n := w.InjectRuntimeStep(2, 0); n.Jobs[2].RunTime != 100 {
		t.Fatal("zero fill should not change run times")
	}
}
